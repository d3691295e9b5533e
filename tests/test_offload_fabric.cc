// Offload-fabric tests: routing policies, multi-client contention counter
// consistency, cross-shard free ownership, shard-count determinism, and the
// constructor argument checks that must fire in every build type.
#include <algorithm>

#include <gtest/gtest.h>

#include "src/alloc/layout.h"
#include "src/core/nextgen_malloc.h"
#include "src/workload/runner.h"
#include "src/workload/xmalloc.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

// ---- RoutingPolicy units ----

std::vector<ShardLoad> FlatLoads(std::size_t n) { return std::vector<ShardLoad>(n); }

TEST(Routing, StaticByClientModsClientId) {
  auto p = MakeRoutingPolicy(RoutingKind::kStaticByClient);
  const auto loads = FlatLoads(3);
  EXPECT_EQ(p->Route(0, 64, 2, loads), 0);
  EXPECT_EQ(p->Route(4, 64, 2, loads), 1);
  EXPECT_EQ(p->Route(5, 4096, 9, loads), 2);
}

TEST(Routing, BySizeClassModsClassId) {
  auto p = MakeRoutingPolicy(RoutingKind::kBySizeClass);
  const auto loads = FlatLoads(2);
  EXPECT_EQ(p->Route(7, 64, 4, loads), 0);
  EXPECT_EQ(p->Route(7, 96, 5, loads), 1);
}

TEST(Routing, LeastLoadedPicksShallowestQueueThenEarliestClock) {
  auto p = MakeRoutingPolicy(RoutingKind::kLeastLoaded);
  std::vector<ShardLoad> loads(3);
  loads[0].queue_depth = 5;
  loads[1].queue_depth = 1;
  loads[2].queue_depth = 1;
  loads[1].server_now = 900;
  loads[2].server_now = 100;
  EXPECT_EQ(p->Route(0, 64, 2, loads), 2) << "shallowest queue, earliest clock";
  loads[2].server_now = 900;
  EXPECT_EQ(p->Route(0, 64, 2, loads), 1) << "full tie breaks to the lower shard id";
}

TEST(Routing, ParseRoundTrips) {
  for (const RoutingKind k : {RoutingKind::kStaticByClient, RoutingKind::kBySizeClass,
                              RoutingKind::kLeastLoaded}) {
    RoutingKind out;
    ASSERT_TRUE(ParseRoutingKind(RoutingKindName(k), &out));
    EXPECT_EQ(out, k);
  }
  RoutingKind out;
  EXPECT_FALSE(ParseRoutingKind("bogus", &out));
}

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
  cfg.num_shards = 2;
  cfg.routing = RoutingKind::kBySizeClass;
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 2);
  Env c0(*machine, 0);
  Env c1(*machine, 1);

  // Client 0 allocates a spread of size classes; BySizeClass scatters them
  // across both partitions.
  std::vector<Addr> owned_by[2];
  for (int i = 0; i < 40; ++i) {
    const Addr a = sys.allocator->Malloc(c0, 16 + 16 * static_cast<std::uint64_t>(i % 8));
    ASSERT_NE(a, kNullAddr);
    const int shard = sys.allocator->ShardOfAddr(a);
    ASSERT_TRUE(shard == 0 || shard == 1);
    owned_by[shard].push_back(a);
  }
  ASSERT_FALSE(owned_by[0].empty());
  ASSERT_FALSE(owned_by[1].empty());
  EXPECT_EQ(sys.allocator->shard_stats(0).mallocs, owned_by[0].size());
  EXPECT_EQ(sys.allocator->shard_stats(1).mallocs, owned_by[1].size());

  // Client 1 -- not the allocating client -- frees everything. Each block
  // must return to the shard owning its heap partition, not to the shard the
  // routing policy would pick for client 1.
  for (const std::vector<Addr>& batch : owned_by) {
    for (const Addr a : batch) {
      sys.allocator->Free(c1, a);
    }
  }
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->shard_stats(0).frees, owned_by[0].size());
  EXPECT_EQ(sys.allocator->shard_stats(1).frees, owned_by[1].size());
  EXPECT_EQ(sys.fabric->shard_stats(0).async_ops, owned_by[0].size());
  EXPECT_EQ(sys.fabric->shard_stats(1).async_ops, owned_by[1].size());
}

TEST(OffloadFabric, LeastLoadedSpreadsWorkAcrossShards) {
  auto machine = MakeMachine(3);
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = 2;
  cfg.routing = RoutingKind::kLeastLoaded;
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 1);
  Env app(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 100; ++i) {
    blocks.push_back(sys.allocator->Malloc(app, 64));
  }
  EXPECT_GT(sys.allocator->shard_stats(0).mallocs, 0u);
  EXPECT_GT(sys.allocator->shard_stats(1).mallocs, 0u);
  for (const Addr a : blocks) {
    sys.allocator->Free(app, a);
  }
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->stats().frees, 100u);
}

// ---- Determinism: identical seeds give identical PMU totals per shard count ----

class ShardDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardDeterminismTest, SameSeedSameTotalPmu) {
  const int shards = GetParam();
  constexpr int kClients = 4;
  auto run = [&] {
    Machine machine(MachineConfig::Default(kClients + shards));
    NgxConfig cfg = NgxConfig::PaperPrototype();
    cfg.num_shards = shards;
    cfg.routing = RoutingKind::kLeastLoaded;  // the most state-dependent policy
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
    PmuCounters total;
    for (int core = 0; core < machine.num_cores(); ++core) {
      total += machine.core(core).pmu();
    }
    return total;
  };
  const PmuCounters a = run();
  const PmuCounters b = run();
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

TEST(OffloadFabricDeath, DuplicateShardCoresAbort) {
  auto machine = MakeMachine(3);
  EXPECT_DEATH_IF_SUPPORTED(
      OffloadFabric(*machine, {1, 1}, kChannelBase, 16,
                    MakeRoutingPolicy(RoutingKind::kStaticByClient)),
      "distinct");
}

}  // namespace
}  // namespace ngx
