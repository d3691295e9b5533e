// Offload-fabric tests: the router's static spread and home-shard routing
// over every pattern of parked shards, multi-client contention counter
// consistency, cross-shard free ownership, shard-count determinism under
// adaptive routing, and the constructor argument checks that must fire in
// every build type.
#include <algorithm>

#include <gtest/gtest.h>

#include "src/alloc/layout.h"
#include "src/core/nextgen_malloc.h"
#include "src/workload/runner.h"
#include "src/workload/xmalloc.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

// ---- Router units ----

std::vector<ShardState> ActiveStates(std::size_t n) {
  return std::vector<ShardState>(n, ShardState::kActive);
}

TEST(Routing, StaticByClientModsClientId) {
  const Router r;
  const auto states = ActiveStates(3);
  EXPECT_EQ(r.Route(0, states), 0);
  EXPECT_EQ(r.Route(4, states), 1);
  EXPECT_EQ(r.Route(5, states), 2);
}

// Over every shard count and every pattern of shards that serve no mallocs:
// an unplaced client lands on the (client % active)-th active shard, so the
// active shards share the clients round robin; a placed client goes to its
// home while the home is active and takes that spread otherwise; and with
// the whole fleet inactive every client falls back to shard 0.
class RouterSpreadTest : public ::testing::TestWithParam<int> {
 protected:
  // Shard states for `mask` (bit s set = shard s active).
  static std::vector<ShardState> States(int n, unsigned mask) {
    std::vector<ShardState> states;
    for (int s = 0; s < n; ++s) {
      states.push_back(((mask >> s) & 1u) != 0 ? ShardState::kActive : ShardState::kParked);
    }
    return states;
  }
  static int Spread(int client, const std::vector<ShardState>& states) {
    std::vector<int> active;
    for (int s = 0; s < static_cast<int>(states.size()); ++s) {
      if (states[static_cast<std::size_t>(s)] == ShardState::kActive) {
        active.push_back(s);
      }
    }
    return active.empty() ? 0 : active[static_cast<std::size_t>(client) % active.size()];
  }
};

TEST_P(RouterSpreadTest, UnplacedClientsRoundRobinOverActiveShards) {
  const int n = GetParam();
  const Router r;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    const std::vector<ShardState> states = States(n, mask);
    for (int client = 0; client < 3 * n; ++client) {
      ASSERT_EQ(r.Route(client, states), Spread(client, states))
          << "mask " << mask << " client " << client;
    }
  }
}

TEST_P(RouterSpreadTest, PlacedClientsKeepTheirHomeWhileItServes) {
  const int n = GetParam();
  // One epoch in which every client has traffic places all of them.
  EpochMatrix epoch;
  epoch.num_clients = 2 * n;
  epoch.num_shards = n;
  epoch.ops.assign(static_cast<std::size_t>(2 * n * n), 0);
  for (int c = 0; c < 2 * n; ++c) {
    epoch.ops[static_cast<std::size_t>(c * n)] = static_cast<std::uint64_t>(1000 - c);
  }
  Router r;
  r.Observe(epoch, std::vector<ShardState>(static_cast<std::size_t>(n), ShardState::kActive));
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    const std::vector<ShardState> states = States(n, mask);
    for (int client = 0; client < 2 * n; ++client) {
      const int home = r.HomeOf(client);
      ASSERT_TRUE(home >= 0 && home < n) << "client " << client;
      const int expect =
          states[static_cast<std::size_t>(home)] == ShardState::kActive ? home
                                                                        : Spread(client, states);
      ASSERT_EQ(r.Route(client, states), expect) << "mask " << mask << " client " << client;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, RouterSpreadTest, ::testing::Values(1, 2, 3, 4, 8));

// ---- Multi-client contention: the counters must tell one coherent story ----

TEST(OffloadFabric, FourClientContentionCountersConsistent) {
  constexpr int kClients = 4;
  constexpr int kRounds = 50;
  auto machine = MakeMachine(kClients + 1);
  NgxSystem sys = MakeNgxSystem(*machine, NgxConfig::PaperPrototype(), kClients);
  std::vector<Env> envs;
  envs.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    envs.emplace_back(*machine, c);
  }

  std::vector<std::vector<Addr>> blocks(kClients);
  for (int round = 0; round < kRounds; ++round) {
    for (int c = 0; c < kClients; ++c) {
      const Addr a = sys.allocator->Malloc(envs[c], 64 + 16 * static_cast<std::uint64_t>(c));
      ASSERT_NE(a, kNullAddr);
      blocks[static_cast<std::size_t>(c)].push_back(a);
    }
  }
  for (int c = 0; c < kClients; ++c) {
    for (const Addr a : blocks[static_cast<std::size_t>(c)]) {
      sys.allocator->Free(envs[c], a);
    }
  }
  for (int c = 0; c < kClients; ++c) {
    sys.allocator->Flush(envs[c]);
  }
  sys.fabric->DrainAll();

  const AllocatorStats s = sys.allocator->stats();
  const OffloadEngineStats es = sys.fabric->TotalStats();
  EXPECT_EQ(s.mallocs, static_cast<std::uint64_t>(kClients) * kRounds);
  EXPECT_EQ(s.mallocs, s.frees);
  // Every malloc was a round trip; every Flush adds one kFlush per shard.
  EXPECT_EQ(es.sync_requests, sys.allocator->sync_mallocs() + kClients);
  // Every free rode a ring and was eventually drained.
  EXPECT_EQ(es.async_ops, s.frees);
  // Four clients hammering one server core must queue behind each other.
  EXPECT_GT(es.server_busy_waits, 0u);
  EXPECT_EQ(sys.fabric->QueueDepth(0), 0u) << "DrainAll leaves nothing pending";
}

TEST(OffloadFabric, FreeBurstFillsTheRing) {
  auto machine = MakeMachine(2);
  NgxConfig cfg = NgxConfig::PaperPrototype();  // kNgxRingCapacity = 64 slots
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 1);
  Env app(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 200; ++i) {
    blocks.push_back(sys.allocator->Malloc(app, 64));
  }
  // A free burst with no intervening sync requests: the ring (64 slots) must
  // fill and the client must stall for the server to drain it.
  for (const Addr a : blocks) {
    sys.allocator->Free(app, a);
  }
  sys.fabric->DrainAll();
  const OffloadEngineStats es = sys.fabric->TotalStats();
  EXPECT_GT(es.ring_full_stalls, 0u);
  EXPECT_EQ(es.async_ops, 200u);
  EXPECT_EQ(sys.allocator->stats().frees, 200u);
}

// ---- Cross-shard frees drain at the owning shard ----

TEST(OffloadFabric, FreesDrainAtOwningShard) {
  auto machine = MakeMachine(4);  // clients 0-1, shards on cores 2-3
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = 2;  // static_by_client: client c mallocs on shard c
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 2);
  Env envs[2] = {Env(*machine, 0), Env(*machine, 1)};

  // Each client allocates a spread of size classes on its own shard.
  std::vector<Addr> owned_by[2];
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 20; ++i) {
      const Addr a = sys.allocator->Malloc(envs[c], 16 + 16 * static_cast<std::uint64_t>(i % 8));
      ASSERT_NE(a, kNullAddr);
      ASSERT_EQ(sys.allocator->ShardOfAddr(a), c) << "static routing sends client c to shard c";
      owned_by[c].push_back(a);
    }
  }
  EXPECT_EQ(sys.allocator->shard_stats(0).mallocs, owned_by[0].size());
  EXPECT_EQ(sys.allocator->shard_stats(1).mallocs, owned_by[1].size());

  // Each client frees the OTHER client's blocks. Every block must return to
  // the shard owning its heap partition, not to the shard the router would
  // pick for the freeing client.
  for (int c = 0; c < 2; ++c) {
    for (const Addr a : owned_by[1 - c]) {
      sys.allocator->Free(envs[c], a);
    }
  }
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->shard_stats(0).frees, owned_by[0].size());
  EXPECT_EQ(sys.allocator->shard_stats(1).frees, owned_by[1].size());
  EXPECT_EQ(sys.fabric->shard_stats(0).async_ops, owned_by[0].size());
  EXPECT_EQ(sys.fabric->shard_stats(1).async_ops, owned_by[1].size());
}

// ---- Determinism: identical seeds give identical PMU totals per shard count ----

class ShardDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardDeterminismTest, SameSeedSameTotalPmu) {
  const int shards = GetParam();
  constexpr int kClients = 4;
  std::uint64_t epochs = 0;
  auto run = [&] {
    Machine machine(MachineConfig::Default(kClients + shards));
    NgxConfig cfg = NgxConfig::PaperPrototype();
    cfg.num_shards = shards;
    // The most state-dependent routing: the packer re-homes clients at every
    // epoch close and the controller parks and wakes shards.
    cfg.routing = RoutingKind::kAdaptive;
    cfg.adaptive_routing = true;
    cfg.epoch_cycles = 20000;
    cfg.park_threshold_ops = 50;
    NgxSystem sys = MakeNgxSystem(machine, cfg, kClients);
    XmallocConfig c;
    c.ops_per_thread = 500;
    XmallocLike workload(c);
    RunOptions opt;
    opt.cores = FirstCores(kClients);
    for (int s = 0; s < shards; ++s) {
      opt.server_cores.push_back(kClients + s);
    }
    opt.seed = 42;
    RunWorkload(machine, *sys.allocator, workload, opt);
    sys.fabric->DrainAll();
    epochs = sys.allocator->routing_epochs();
    PmuCounters total;
    for (int core = 0; core < machine.num_cores(); ++core) {
      total += machine.core(core).pmu();
    }
    return total;
  };
  const PmuCounters a = run();
  const PmuCounters b = run();
  if (shards > 1) {
    EXPECT_GT(epochs, 0u) << "the epoch controller must have fed the router";
  }
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.atomic_rmws, b.atomic_rmws);
  EXPECT_EQ(a.llc_load_misses, b.llc_load_misses);
  EXPECT_EQ(a.llc_store_misses, b.llc_store_misses);
  EXPECT_EQ(a.dtlb_load_misses, b.dtlb_load_misses);
  EXPECT_EQ(a.dtlb_store_misses, b.dtlb_store_misses);
  EXPECT_EQ(a.remote_hitm, b.remote_hitm);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardDeterminismTest, ::testing::Values(1, 2, 4));

// ---- Constructor argument checks must abort in every build type ----

TEST(OffloadFabricDeath, ServerCoreOutOfRangeAborts) {
  auto machine = MakeMachine(2);
  EXPECT_DEATH_IF_SUPPORTED(
      OffloadEngine(*machine, /*server_core=*/7, kChannelBase, /*ring_capacity=*/16),
      "server core");
}

TEST(OffloadFabricDeath, RingCapacityBeyondStrideAborts) {
  auto machine = MakeMachine(2);
  EXPECT_DEATH_IF_SUPPORTED(
      OffloadEngine(*machine, /*server_core=*/1, kChannelBase, kMaxRingCapacity + 1),
      "ring capacity");
}

TEST(OffloadFabricDeath, EmptyShardListAborts) {
  auto machine = MakeMachine(2);
  EXPECT_DEATH_IF_SUPPORTED(OffloadFabric(*machine, {}, kChannelBase, 16), "at least one shard");
}

TEST(OffloadFabricDeath, DuplicateShardCoresAbort) {
  auto machine = MakeMachine(3);
  EXPECT_DEATH_IF_SUPPORTED(
      OffloadFabric(*machine, {1, 1}, kChannelBase, 16),
      "distinct");
}

}  // namespace
}  // namespace ngx
