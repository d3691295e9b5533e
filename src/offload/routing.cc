#include "src/offload/routing.h"

#include <algorithm>

namespace ngx {

int Router::HomeOf(int client) const {
  if (client < 0 || client >= static_cast<int>(home_.size())) return -1;
  return home_[static_cast<std::size_t>(client)];
}

int Router::Route(int client, const std::vector<ShardState>& states) const {
  const int h = HomeOf(client);
  if (h >= 0 && h < static_cast<int>(states.size()) &&
      states[static_cast<std::size_t>(h)] == ShardState::kActive) {
    return h;
  }
  // Unplaced client (static routing, or before the first epoch) or home
  // shard mid-drain/parked: spread deterministically over whatever is active
  // until the next Observe re-homes it. The epoch controller never parks the
  // whole fleet, so the shard-0 fallback is purely defensive.
  const int active = static_cast<int>(
      std::count(states.begin(), states.end(), ShardState::kActive));
  if (active == 0) return 0;
  int idx = client % active;
  for (int s = 0; s < static_cast<int>(states.size()); ++s) {
    if (states[static_cast<std::size_t>(s)] == ShardState::kActive && idx-- == 0) return s;
  }
  return 0;
}

void Router::Observe(const EpochMatrix& epoch, const std::vector<ShardState>& states) {
  if (epoch.num_shards <= 0) return;
  const auto active = [&states](int s) {
    return states[static_cast<std::size_t>(s)] == ShardState::kActive;
  };
  if (static_cast<int>(home_.size()) < epoch.num_clients) {
    home_.resize(static_cast<std::size_t>(epoch.num_clients), -1);
  }
  // Greedy bin packing: place clients by descending epoch traffic onto the
  // least-packed active shard. Zero-traffic clients keep their home -- an
  // idle client must not churn placement.
  std::vector<int> order;
  for (int c = 0; c < epoch.num_clients; ++c) {
    if (epoch.RowTotal(c) > 0) order.push_back(c);
  }
  std::sort(order.begin(), order.end(), [&epoch](int a, int b) {
    const std::uint64_t ta = epoch.RowTotal(a);
    const std::uint64_t tb = epoch.RowTotal(b);
    return ta != tb ? ta > tb : a < b;
  });
  std::vector<std::uint64_t> packed(static_cast<std::size_t>(epoch.num_shards),
                                    0);
  for (int c : order) {
    const std::uint64_t t = epoch.RowTotal(c);
    int best = -1;
    for (int s = 0; s < epoch.num_shards; ++s) {
      if (!active(s)) continue;
      if (best < 0 || packed[static_cast<std::size_t>(s)] <
                          packed[static_cast<std::size_t>(best)]) {
        best = s;
      }
    }
    if (best < 0) return;  // whole fleet inactive; leave placement alone
    int chosen = best;
    const int h = home_[static_cast<std::size_t>(c)];
    if (h >= 0 && h < epoch.num_shards && h != best && active(h)) {
      // Hysteresis: stay home unless moving beats the home shard's packed
      // height by more than kHysteresisPct percent.
      const std::uint64_t cost_home = packed[static_cast<std::size_t>(h)] + t;
      const std::uint64_t cost_best =
          packed[static_cast<std::size_t>(best)] + t;
      if (cost_home * 100 <= cost_best * (100 + kHysteresisPct)) {
        chosen = h;
      }
    }
    if (h >= 0 && h != chosen) ++client_moves_;
    home_[static_cast<std::size_t>(c)] = chosen;
    packed[static_cast<std::size_t>(chosen)] += t;
  }
}

}  // namespace ngx
