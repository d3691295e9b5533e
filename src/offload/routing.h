// Malloc routing for the sharded offload fabric.
//
// Section 3.1.1 asks "at what granularity should we provision allocator
// cores: one per application, per several applications, or per thread
// group?" -- the fabric makes the question askable by letting N allocator
// shards serve the same client set. The Router picks the shard a malloc goes
// to, in one of two modes (RoutingKind):
//
//  * static_by_client -- client c always talks to the (c % active shards)-th
//    active shard. With N = 1 this is exactly the single-server engine the
//    paper prototypes (4.2); with N > 1 it models "one allocator core per
//    thread group".
//  * adaptive -- the same spread until the fabric's epoch controller hands
//    the router the client x shard op-count matrix observed over an epoch
//    (Observe). The router then greedily re-packs client home shards onto
//    the active shards by descending traffic, with hysteresis so a home only
//    moves when the best candidate is markedly better. Between epochs every
//    malloc goes to the client's home, so a client's working set stays
//    resident in one allocator core's cache.
//
// The two modes are one router: homes are placed only by Observe, and only
// the epoch controller calls it, which NgxConfig ties to routing = adaptive.
//
// Frees and UsableSize are NOT routed: a block is always serviced by the
// shard that owns its heap partition (see NgxAllocator::ShardOfAddr).
#ifndef NGX_SRC_OFFLOAD_ROUTING_H_
#define NGX_SRC_OFFLOAD_ROUTING_H_

#include <cstdint>
#include <vector>

namespace ngx {

enum class RoutingKind {
  kStaticByClient,
  kAdaptive,
};

// Lifecycle of an allocator shard under the elastic-fleet epoch controller
// (NgxConfig::adaptive_routing). An `active` shard serves routed mallocs; a
// `draining` shard takes no new mallocs while its recycled granted spans are
// migrated home; a `parked` shard serves only owner-bound traffic (frees of
// blocks in its partition still arrive via the span directory) and its core
// is accounted as reclaimable capacity. Waking flips a parked shard straight
// back to kActive. With the controller disabled every shard stays kActive
// forever and no code on this path runs.
enum class ShardState {
  kActive,
  kDraining,
  kParked,
};

// One epoch of observed fabric traffic: ops[c * num_shards + s] counts the
// requests client core c issued to shard s since the previous epoch. The
// matrix is host-side bookkeeping accumulated by OffloadFabric and handed to
// Router::Observe by the epoch controller; it is independent of the flight
// recorder's telemetry matrix, which is observational only.
struct EpochMatrix {
  int num_clients = 0;
  int num_shards = 0;
  std::uint64_t epoch = 0;             // epoch sequence number (1-based)
  std::vector<std::uint64_t> ops;      // client-major, num_clients*num_shards

  std::uint64_t Ops(int client, int shard) const {
    return ops[static_cast<std::size_t>(client) *
                   static_cast<std::size_t>(num_shards) +
               static_cast<std::size_t>(shard)];
  }
  std::uint64_t RowTotal(int client) const {
    std::uint64_t total = 0;
    for (int s = 0; s < num_shards; ++s) total += Ops(client, s);
    return total;
  }
  std::uint64_t ColTotal(int shard) const {
    std::uint64_t total = 0;
    for (int c = 0; c < num_clients; ++c) total += Ops(c, shard);
    return total;
  }
};

// One closed epoch of the elastic-fleet controller, as surfaced in
// ControlPlane::fleet_timeline() and the bench JSON: when the epoch closed
// (the controller core's clock), how much fabric traffic it saw, and the
// fleet shape after its park/wake/re-pack decisions.
struct FleetEpoch {
  std::uint64_t cycle = 0;         // controller server-core clock at close
  std::uint64_t epoch_ops = 0;     // total fabric ops observed in the epoch
  int active_shards = 0;           // shards serving mallocs after decisions
  int parked_shards = 0;           // shards parked (or draining) after decisions
  std::uint64_t client_moves = 0;  // home reassignments made this epoch
};

// A home shard per client. Host-side only: routing charges no simulated time
// (the client stub already pays its dispatch Work).
class Router {
 public:
  // A client keeps its home while the home's packed load stays within this
  // many percent of the best candidate's.
  static constexpr std::uint64_t kHysteresisPct = 25;

  // The shard (an index into `states`) that serves `client`'s mallocs: its
  // home while that shard is active; otherwise, and before any epoch has
  // placed it, the (client % active count)-th active shard.
  int Route(int client, const std::vector<ShardState>& states) const;
  // Re-packs homes from one closed epoch: clients by descending epoch
  // traffic, each onto the shard with the smallest packed load among those
  // `states` marks active, unless the hysteresis keeps it home. Zero-traffic
  // clients keep their homes.
  void Observe(const EpochMatrix& epoch, const std::vector<ShardState>& states);

  // Home shard currently assigned to `client`, or -1 before any epoch has
  // placed it.
  int HomeOf(int client) const;
  // Home reassignments across all epochs observed so far.
  std::uint64_t client_moves() const { return client_moves_; }

 private:
  std::vector<int> home_;  // per-client home shard, -1 = unassigned
  std::uint64_t client_moves_ = 0;
};

}  // namespace ngx

#endif  // NGX_SRC_OFFLOAD_ROUTING_H_
