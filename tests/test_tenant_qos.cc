// Per-tenant traits tests (DESIGN.md §15):
//
//  * preset contract units: every TenantPreset parses/round-trips and fills
//    exactly the knobs its contract implies (explicit overrides win);
//  * the tenant plan (ResolveTenantPlan, no machine or fabric): presets and
//    overrides land on the claimed cores, unclaimed cores keep the global
//    NgxConfig contract, watermark overrides bind to the home shard, and
//    pipelined cores split their capacity into halves and spill; on a full
//    system, numa_local and explicit home-shard pins route mallocs to the
//    contracted shard;
//  * low_latency and throughput resolve to the global contract but for
//    free_batch, and a free_batch of one whole ring fits it;
//  * NGX_CHECK death tests for malformed traits, on the resolver: stash
//    capacity below the pipeline's two-half minimum or zero, a free_batch of
//    0 or beyond one ring, unknown preset, unnamed and duplicate tenants,
//    one-sided, inverted and conflicting watermark overrides, an
//    out-of-range home shard, double-claimed cores and claimed server cores;
//  * a shared shard at the engine: one server clock, so DrainAll serves the
//    tenants' rings in client order, whoever published first, and a sync
//    request sent during another tenant's service waits for that service
//    and no longer;
//  * a shared shard on the full system: the low_latency tenant rings one
//    doorbell per free, the throughput tenant one per sixteen;
//  * per-tenant SLO plumbing: RunResult carries one sync-latency digest per
//    configured tenant, in NgxConfig::tenants order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/nextgen_malloc.h"
#include "src/core/tenant_plan.h"
#include "src/core/tenant_traits.h"
#include "src/offload/offload_engine.h"
#include "src/workload/churn.h"
#include "src/workload/runner.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;

// ---- Preset contract units ----

TEST(TenantTraitsUnit, PresetNamesRoundTrip) {
  for (const TenantPreset p :
       {TenantPreset::kDefault, TenantPreset::kLowLatency, TenantPreset::kThroughput,
        TenantPreset::kEphemeral, TenantPreset::kNumaLocal}) {
    TenantPreset out;
    ASSERT_TRUE(ParseTenantPreset(TenantPresetName(p), &out)) << TenantPresetName(p);
    EXPECT_EQ(out, p);
  }
  TenantPreset out;
  EXPECT_FALSE(ParseTenantPreset("turbo", &out));
  EXPECT_FALSE(ParseTenantPreset("", &out));
}

TEST(TenantTraitsUnit, LowLatencyContractFreesUnbatched) {
  const TenantTraits t = MakeTenantTraits("low_latency");
  EXPECT_EQ(t.preset, TenantPreset::kLowLatency);
  EXPECT_EQ(t.free_batch, 1u);
  EXPECT_EQ(t.stash_capacity, TenantTraits::kInherit);
  EXPECT_EQ(t.span_low_mark, TenantTraits::kInherit64);
  EXPECT_EQ(t.home_shard, -1);
}

TEST(TenantTraitsUnit, ThroughputContractBatchesDeep) {
  const TenantTraits t = MakeTenantTraits("throughput");
  EXPECT_EQ(t.free_batch, 16u);
  EXPECT_EQ(t.stash_capacity, TenantTraits::kInherit);
}

TEST(TenantTraitsUnit, EphemeralContractDeepensTheStash) {
  const TenantTraits t = MakeTenantTraits("ephemeral");
  EXPECT_EQ(t.stash_capacity, 32u);
  EXPECT_EQ(t.free_batch, 8u);
}

TEST(TenantTraitsUnit, DefaultAndNumaLocalInheritEveryKnob) {
  for (const char* name : {"default", "numa_local"}) {
    const TenantTraits t = MakeTenantTraits(name);
    EXPECT_EQ(t.stash_capacity, TenantTraits::kInherit) << name;
    EXPECT_EQ(t.stash_refill_mark, TenantTraits::kInherit) << name;
    EXPECT_EQ(t.free_batch, TenantTraits::kInherit) << name;
    EXPECT_EQ(t.span_low_mark, TenantTraits::kInherit64) << name;
    EXPECT_EQ(t.span_high_mark, TenantTraits::kInherit64) << name;
    EXPECT_EQ(t.home_shard, -1) << name;
  }
}

TEST(TenantTraitsDeath, UnknownPresetAborts) {
  EXPECT_DEATH_IF_SUPPORTED((void)MakeTenantTraits("turbo"), "unknown tenant preset");
}

// ---- Registration-time resolution ----

// The four-tenant mix the QoS ablation uses, at test scale: a latency
// tenant and an overridden throughput tenant share shard 0, an ephemeral
// tenant rides shard 1, and core 1 stays on the implicit default contract.
NgxConfig TenantMixConfig() {
  NgxConfig cfg;  // offloaded, async frees, segregated metadata
  cfg.num_shards = 2;
  TenantSpec fe;
  fe.name = "frontend";
  fe.traits = MakeTenantTraits("low_latency");
  fe.cores = {0};
  TenantSpec an;
  an.name = "analytics";
  an.traits = MakeTenantTraits("throughput");
  an.traits.free_batch = 32;  // explicit override beats the preset's 16
  an.cores = {2};
  TenantSpec ca;
  ca.name = "cache";
  ca.traits = MakeTenantTraits("ephemeral");
  ca.cores = {3};
  cfg.tenants = {fe, an, ca};
  return cfg;
}

// A two-shard config with the global rebalance protocol on (low 8, high
// 16), for tests of watermark overrides and of the marks tenants keep.
NgxConfig WatermarkConfig() {
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.span_donation = true;
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 16;
  return cfg;
}

TEST(TenantResolution, PresetsAndOverridesLandOnTheClaimedCores) {
  const TenantPlan plan = ResolveTenantPlan(TenantMixConfig(), /*num_cores=*/6,
                                            /*cluster_cores=*/0, /*server_cores=*/{4, 5});
  ASSERT_EQ(plan.tenant_names.size(), 3u);
  EXPECT_EQ(plan.tenant_names[0], "frontend");
  EXPECT_EQ(plan.tenant_names[1], "analytics");
  EXPECT_EQ(plan.tenant_names[2], "cache");
  EXPECT_EQ(plan.cores[0].tenant, 0);
  EXPECT_EQ(plan.cores[2].tenant, 1);
  EXPECT_EQ(plan.cores[3].tenant, 2);
  EXPECT_EQ(plan.cores[0].free_batch, 1u);
  EXPECT_EQ(plan.cores[2].free_batch, 32u) << "explicit override must beat the preset";
  EXPECT_EQ(plan.cores[3].stash_capacity, 32u) << "ephemeral deepens the stash";
  EXPECT_EQ(plan.cores[3].free_batch, 8u);
}

TEST(TenantResolution, UnclaimedCoresKeepTheGlobalContract) {
  const NgxConfig cfg = TenantMixConfig();
  const TenantPlan plan = ResolveTenantPlan(cfg, 6, 0, {4, 5});
  EXPECT_EQ(plan.cores[1].tenant, -1) << "core 1 runs the implicit default tenant";
  EXPECT_EQ(plan.cores[1].free_batch, cfg.free_batch);
  EXPECT_EQ(plan.cores[1].stash_capacity, cfg.stash_capacity);
  EXPECT_EQ(plan.cores[1].home_shard, -1);
}

TEST(TenantResolution, AllDefaultTenantListMatchesTheNoTenantResolution) {
  NgxConfig plain;
  plain.num_shards = 2;
  NgxConfig listed = plain;
  TenantSpec t;
  t.name = "default_tenant";
  t.cores = {0, 1};  // all knobs at kInherit
  listed.tenants = {t};
  const TenantPlan plan_plain = ResolveTenantPlan(plain, 4, 0, {2, 3});
  const TenantPlan plan_listed = ResolveTenantPlan(listed, 4, 0, {2, 3});
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(plan_plain.cores[c].stash_capacity, plan_listed.cores[c].stash_capacity);
    EXPECT_EQ(plan_plain.cores[c].free_batch, plan_listed.cores[c].free_batch);
    EXPECT_EQ(plan_plain.cores[c].home_shard, plan_listed.cores[c].home_shard);
  }
}

TEST(TenantResolution, NumaLocalPinsTheHomeShardIntoTheClientsCluster) {
  MachineConfig mc = MachineConfig::Default(4);
  mc.cluster_cores = 2;  // clusters {0,1} and {2,3}
  Machine machine(mc);
  NgxConfig cfg;
  cfg.num_shards = 2;
  TenantSpec near;
  near.name = "pinned";
  near.traits = MakeTenantTraits("numa_local");
  near.cores = {2};  // shares cluster 1 with server core 3 (shard 1)
  cfg.tenants = {near};
  auto sys = MakeNgxSystem(machine, cfg, {1, 3});
  EXPECT_EQ(sys.allocator->plan().cores[2].home_shard, 1)
      << "numa_local must resolve to the shard whose server shares the cluster";
  // The pin routes this tenant's mallocs to its contracted shard.
  Env env(machine, 2);
  const Addr a = sys.allocator->Malloc(env, 64);
  ASSERT_NE(a, kNullAddr);
  EXPECT_EQ(sys.allocator->ShardOfAddr(a), 1);
  sys.allocator->Free(env, a);
  sys.allocator->Flush(env);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->stats().mallocs, sys.allocator->stats().frees);
}

TEST(TenantResolution, ExplicitHomeShardPinWins) {
  auto machine = MakeMachine(4);
  NgxConfig cfg;
  cfg.num_shards = 2;
  TenantSpec t;
  t.name = "pinned";
  t.traits.home_shard = 1;
  t.cores = {0};  // static route would be shard 0
  cfg.tenants = {t};
  auto sys = MakeNgxSystem(*machine, cfg, {2, 3});
  EXPECT_EQ(sys.allocator->plan().cores[0].home_shard, 1);
  Env env(*machine, 0);
  const Addr a = sys.allocator->Malloc(env, 64);
  ASSERT_NE(a, kNullAddr);
  EXPECT_EQ(sys.allocator->ShardOfAddr(a), 1);
  sys.allocator->Free(env, a);
  sys.allocator->Flush(env);
  sys.fabric->DrainAll();
}

TEST(TenantResolution, WatermarkOverridesBindToTheHomeShard) {
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.hugepage_spans = false;
  cfg.heap_window = 16 * kMiB;
  cfg.span_donation = true;
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 16;
  TenantSpec t;
  t.name = "greedy";
  t.traits.span_low_mark = 24;
  t.traits.span_high_mark = 48;
  t.cores = {1};  // static route: shard 1
  cfg.tenants = {t};
  const TenantPlan plan = ResolveTenantPlan(cfg, 4, 0, {2, 3});
  EXPECT_EQ(plan.shards[0].low, 8u);
  EXPECT_EQ(plan.shards[0].high, 16u);
  EXPECT_EQ(plan.shards[1].low, 24u);
  EXPECT_EQ(plan.shards[1].high, 48u);
}

// A pipelined core uses at most one line's worth of each half and keeps the
// rest of its capacity as a client-only spill stack; a core whose capacity
// fits inside the halves has no spill, and without the pipeline neither
// depth exists.
TEST(TenantPlan, PipelinedCoresSplitTheirCapacityIntoHalvesAndSpill) {
  NgxConfig cfg;
  cfg.prediction = true;
  cfg.stash_pipeline = true;
  cfg.stash_capacity = 2 * kPipeHalfCap;  // exactly the two halves
  TenantSpec deep;
  deep.name = "deep";
  deep.traits = MakeTenantTraits("ephemeral");
  deep.traits.stash_capacity = 40;
  deep.cores = {0};
  cfg.tenants = {deep};
  const TenantPlan plan = ResolveTenantPlan(cfg, 3, 0, {2});
  EXPECT_EQ(plan.cores[0].pipe_cap, kPipeHalfCap);
  EXPECT_EQ(plan.cores[0].spill_depth, 40u - 2 * kPipeHalfCap);
  EXPECT_EQ(plan.cores[1].pipe_cap, kPipeHalfCap);
  EXPECT_EQ(plan.cores[1].spill_depth, 0u);
  cfg.stash_pipeline = false;
  const TenantPlan unpipelined = ResolveTenantPlan(cfg, 3, 0, {2});
  EXPECT_EQ(unpipelined.cores[0].pipe_cap, 0u);
  EXPECT_EQ(unpipelined.cores[0].spill_depth, 0u);
  EXPECT_EQ(unpipelined.cores[0].stash_capacity, 40u);
}

// The latency and throughput presets are free-batching contracts and
// nothing else: their cores resolve to the unclaimed core's stash, refill,
// pipeline and home-shard knobs, and their shards keep the global marks.
TEST(TenantResolution, LatencyAndThroughputPresetsChangeOnlyFreeBatch) {
  NgxConfig cfg = WatermarkConfig();
  cfg.prediction = true;
  cfg.stash_pipeline = true;
  cfg.free_batch = 4;
  TenantSpec fe;
  fe.name = "frontend";
  fe.traits = MakeTenantTraits("low_latency");
  fe.cores = {0};
  TenantSpec an;
  an.name = "analytics";
  an.traits = MakeTenantTraits("throughput");
  an.cores = {1};
  cfg.tenants = {fe, an};
  const TenantPlan plan = ResolveTenantPlan(cfg, 5, 0, {3, 4});
  const CoreContract& plain = plan.cores[2];
  EXPECT_EQ(plain.tenant, -1);
  EXPECT_EQ(plain.free_batch, 4u);
  EXPECT_EQ(plan.cores[0].free_batch, 1u);
  EXPECT_EQ(plan.cores[1].free_batch, 16u);
  for (const int c : {0, 1}) {
    const CoreContract& core = plan.cores[static_cast<std::size_t>(c)];
    EXPECT_EQ(core.stash_capacity, plain.stash_capacity) << "core " << c;
    EXPECT_EQ(core.refill_mark, plain.refill_mark) << "core " << c;
    EXPECT_EQ(core.pipe_cap, plain.pipe_cap) << "core " << c;
    EXPECT_EQ(core.spill_depth, plain.spill_depth) << "core " << c;
    EXPECT_EQ(core.home_shard, plain.home_shard) << "core " << c;
  }
  for (const ShardWatermarks& marks : plan.shards) {
    EXPECT_EQ(marks.low, 8u);
    EXPECT_EQ(marks.high, 16u);
  }
}

// The largest free_batch the resolver accepts fills the ring exactly: the
// batch publishes with one doorbell and never stalls on a full ring.
TEST(TenantResolution, WholeRingFreeBatchPublishesWithoutAStall) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  TenantSpec t;
  t.name = "bulk";
  t.traits.free_batch = kNgxRingCapacity;
  t.cores = {0};
  cfg.tenants = {t};
  auto sys = MakeNgxSystem(*machine, cfg, {2});
  EXPECT_EQ(sys.allocator->plan().cores[0].free_batch, kNgxRingCapacity);
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (std::uint32_t i = 0; i < kNgxRingCapacity; ++i) {
    blocks.push_back(sys.allocator->Malloc(env, 64));
    ASSERT_NE(blocks.back(), kNullAddr);
  }
  for (const Addr a : blocks) {
    sys.allocator->Free(env, a);
  }
  const OffloadEngineStats& st = sys.fabric->shard_stats(0);
  EXPECT_EQ(st.free_batches, 1u);
  EXPECT_EQ(st.staged_frees, kNgxRingCapacity);
  EXPECT_EQ(st.async_enqueued, kNgxRingCapacity);
  EXPECT_EQ(st.ring_full_stalls, 0u);
  sys.allocator->Flush(env);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->stats().mallocs, sys.allocator->stats().frees);
}

// ---- Malformed-traits death tests ----

TEST(TenantConfigDeath, StashBelowThePipelineTwoHalfMinimumAborts) {
  NgxConfig cfg;
  cfg.prediction = true;
  cfg.stash_pipeline = true;  // stash layout needs two kPipeHalfCap halves
  TenantSpec t;
  t.name = "tiny";
  t.traits.stash_capacity = 2 * kPipeHalfCap - 1;
  t.cores = {0};
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, 0, {2}), "two-half minimum");
}

TEST(TenantConfigDeath, ZeroFreeBatchAborts) {
  NgxConfig cfg;
  TenantSpec t;
  t.name = "stuck";
  t.traits.free_batch = 0;
  t.cores = {0};
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, 0, {2}),
                            "tenant free_batch must fit in one async ring");
}

TEST(TenantConfigDeath, DuplicateTenantNameAborts) {
  NgxConfig cfg;
  TenantSpec a;
  a.name = "twin";
  a.cores = {0};
  TenantSpec b;
  b.name = "twin";
  b.cores = {1};
  cfg.tenants = {a, b};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, 0, {2}), "duplicate tenant name");
}

TEST(TenantConfigDeath, CoreClaimedByTwoTenantsAborts) {
  NgxConfig cfg;
  TenantSpec a;
  a.name = "first";
  a.cores = {0};
  TenantSpec b;
  b.name = "second";
  b.cores = {0};
  cfg.tenants = {a, b};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, 0, {2}), "claimed by two tenants");
}

TEST(TenantConfigDeath, ClaimingAServerCoreAborts) {
  NgxConfig cfg;
  TenantSpec t;
  t.name = "greedy";
  t.cores = {2};  // the shard server core
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, 0, {2}), "server core");
}

TEST(TenantConfigDeath, ZeroStashCapacityAborts) {
  NgxConfig cfg;
  cfg.prediction = true;  // unpipelined: no two-half minimum applies
  TenantSpec t;
  t.name = "empty";
  t.traits.stash_capacity = 0;
  t.cores = {0};
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, 0, {2}),
                            "tenant stash capacity must be nonzero");
}

TEST(TenantConfigDeath, FreeBatchBeyondOneRingAborts) {
  NgxConfig cfg;
  TenantSpec t;
  t.name = "overflow";
  t.traits.free_batch = kNgxRingCapacity + 1;
  t.cores = {0};
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, 0, {2}),
                            "tenant free_batch must fit in one async ring");
}

TEST(TenantConfigDeath, UnnamedTenantAborts) {
  NgxConfig cfg;
  TenantSpec t;  // empty name: nothing to label its SLO series with
  t.cores = {0};
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, 0, {2}), "tenant needs a name");
}

TEST(TenantConfigDeath, OneSidedWatermarkOverrideAborts) {
  NgxConfig cfg = WatermarkConfig();
  TenantSpec t;
  t.name = "half";
  t.traits.span_low_mark = 24;  // no high mark
  t.cores = {0};
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 4, 0, {2, 3}),
                            "must set both marks or neither");
}

TEST(TenantConfigDeath, InvertedWatermarkOverrideAborts) {
  NgxConfig cfg = WatermarkConfig();
  TenantSpec t;
  t.name = "inverted";
  t.traits.span_low_mark = 48;
  t.traits.span_high_mark = 24;
  t.cores = {0};
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 4, 0, {2, 3}),
                            "span_high_mark must exceed span_low_mark");
}

TEST(TenantConfigDeath, ConflictingWatermarksOnOneShardAborts) {
  NgxConfig cfg = WatermarkConfig();
  TenantSpec a;
  a.name = "first";
  a.traits.span_low_mark = 24;
  a.traits.span_high_mark = 48;
  a.cores = {0};
  TenantSpec b;
  b.name = "second";
  b.traits.span_low_mark = 32;
  b.traits.span_high_mark = 64;
  b.traits.home_shard = 0;  // core 1's static route would be shard 1
  b.cores = {1};
  cfg.tenants = {a, b};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 4, 0, {2, 3}),
                            "conflicting watermarks");
}

TEST(TenantConfigDeath, HomeShardOutOfRangeAborts) {
  NgxConfig cfg;
  cfg.num_shards = 2;
  TenantSpec t;
  t.name = "lost";
  t.traits.home_shard = 2;
  t.cores = {0};
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 4, 0, {2, 3}),
                            "home_shard out of range");
}

// ---- A shared shard at the engine ----

constexpr Addr kQosChannelBase = 0x0700'0000'0000ull;

// Records the order clients were served in. A request runs 50 instructions
// of work, `slow_work` for `slow_client`.
class OrderRecordingServer : public OffloadServer {
 public:
  std::uint64_t HandleRequest(Env& env, int client, OffloadOp /*op*/,
                              std::uint64_t arg) override {
    env.Work(client == slow_client ? slow_work : 50);
    served.push_back(client);
    return arg + 1;
  }

  int slow_client = -1;
  std::uint64_t slow_work = 50;
  std::vector<int> served;
};

struct EngineRig {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<OffloadEngine> engine;
  OrderRecordingServer server;

  explicit EngineRig(int cores = 4) {
    machine = MakeMachine(cores);
    machine->address_map().Add(Region{kQosChannelBase,
                                      kChannelStride * static_cast<std::uint64_t>(cores),
                                      PageKind::kSmall4K, "chan"});
    engine = std::make_unique<OffloadEngine>(*machine, /*server_core=*/cores - 1,
                                             kQosChannelBase, /*ring_capacity=*/16);
    engine->set_server(&server);
  }

  // Sends a sync request from `client` at time `at` and returns its finish.
  std::uint64_t SyncAt(int client, std::uint64_t at) {
    machine->core(client).AdvanceTo(at);
    Env env(*machine, client);
    engine->SyncRequest(env, OffloadOp::kMalloc, 1);
    return env.now();
  }

  // The latest clock on the machine: a send there finds the server idle.
  std::uint64_t Latest() const {
    std::uint64_t t = 0;
    for (int c = 0; c < machine->num_cores(); ++c) {
      t = std::max(t, machine->core(c).now());
    }
    return t;
  }
};

// Tenants sharing a shard get no priority over one another: DrainAll serves
// the rings by client id, not in the order the frees were published.
TEST(TenantSharedShard, DrainAllServesRingsInClientOrder) {
  EngineRig rig;
  Env c0(*rig.machine, 0);
  Env c1(*rig.machine, 1);
  Env c2(*rig.machine, 2);
  rig.engine->AsyncRequest(c0, OffloadOp::kFree, 1);
  rig.engine->AsyncRequest(c2, OffloadOp::kFree, 2);
  rig.engine->AsyncRequest(c1, OffloadOp::kFree, 3);
  rig.engine->DrainAll();
  ASSERT_EQ(rig.server.served.size(), 3u);
  EXPECT_EQ(rig.server.served[0], 0);
  EXPECT_EQ(rig.server.served[1], 1);
  EXPECT_EQ(rig.server.served[2], 2);
}

// One server clock: a latency tenant's sync request sent while a bulk
// tenant's service runs waits for that service to end, whatever the two
// contracts say. It then pays its own service and nothing more.
TEST(TenantSharedShard, SyncSentDuringAnotherTenantsServiceWaitsForItsEnd) {
  EngineRig rig;
  rig.server.slow_client = 2;
  rig.server.slow_work = 20000;
  rig.SyncAt(0, 0);  // one request each, so every mailbox line has moved
  rig.SyncAt(2, rig.Latest());
  std::uint64_t t = rig.Latest();
  const std::uint64_t round_trip = rig.SyncAt(0, t) - t;

  t = rig.Latest();
  const std::uint64_t bulk_finish = rig.SyncAt(2, t);
  ASSERT_GT(bulk_finish - t, 10 * round_trip);
  const std::uint64_t send = t + (bulk_finish - t) / 2;
  const std::uint64_t finish = rig.SyncAt(0, send);
  EXPECT_GE(finish, bulk_finish) << "served while the bulk service still ran";
  EXPECT_LE(finish - bulk_finish, round_trip);
}

// The coupling is the service in progress and nothing else: a sync request
// sent after the bulk tenant's service ended takes its unloaded round trip.
TEST(TenantSharedShard, SyncSentAfterAnotherTenantsServiceIsNotDelayed) {
  EngineRig rig;
  rig.server.slow_client = 2;
  rig.server.slow_work = 20000;
  rig.SyncAt(0, 0);
  rig.SyncAt(2, rig.Latest());
  std::uint64_t t = rig.Latest();
  const std::uint64_t round_trip = rig.SyncAt(0, t) - t;

  t = rig.Latest();
  const std::uint64_t bulk_finish = rig.SyncAt(2, t);
  const std::uint64_t send = bulk_finish + 100;
  EXPECT_EQ(rig.SyncAt(0, send) - send, round_trip);
}

// ---- A shared shard on the full system ----

// A low_latency tenant (core 0) and a throughput tenant (core 1) on one
// shard (server core 2), over a global free_batch of 8 that neither keeps.
struct SharedShardSystem {
  std::unique_ptr<Machine> machine = MakeMachine(3);
  NgxSystem sys;

  SharedShardSystem() {
    NgxConfig cfg;
    cfg.free_batch = 8;
    TenantSpec fe;
    fe.name = "frontend";
    fe.traits = MakeTenantTraits("low_latency");
    fe.cores = {0};
    TenantSpec an;
    an.name = "analytics";
    an.traits = MakeTenantTraits("throughput");
    an.cores = {1};
    cfg.tenants = {fe, an};
    sys = MakeNgxSystem(*machine, cfg, {2});
  }

  std::vector<Addr> MallocBlocks(Env& env, int n) {
    std::vector<Addr> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(sys.allocator->Malloc(env, 64));
    }
    return out;
  }

  const OffloadEngineStats& stats() const { return sys.fabric->shard_stats(0); }

  // Publishes what is staged, drains the shard and checks the books.
  void Finish(Env& env) {
    sys.allocator->Flush(env);
    sys.fabric->DrainAll();
    EXPECT_EQ(sys.allocator->stats().mallocs, sys.allocator->stats().frees);
  }
};

TEST(TenantSharedShard, LowLatencyTenantRingsOneDoorbellPerFree) {
  SharedShardSystem s;
  Env fe(*s.machine, 0);
  const std::vector<Addr> blocks = s.MallocBlocks(fe, 4);
  const OffloadEngineStats before = s.stats();
  for (const Addr a : blocks) {
    s.sys.allocator->Free(fe, a);
  }
  EXPECT_EQ(s.stats().ring_doorbells - before.ring_doorbells, 4u);
  EXPECT_EQ(s.stats().async_enqueued - before.async_enqueued, 4u) << "each free is visible at once";
  EXPECT_EQ(s.stats().staged_frees, 0u);
  s.Finish(fe);
}

TEST(TenantSharedShard, ThroughputTenantRingsOneDoorbellPerSixteenFrees) {
  SharedShardSystem s;
  Env an(*s.machine, 1);
  const std::vector<Addr> blocks = s.MallocBlocks(an, 16);
  const OffloadEngineStats before = s.stats();
  for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
    s.sys.allocator->Free(an, blocks[i]);
  }
  EXPECT_EQ(s.stats().staged_frees - before.staged_frees, 15u);
  EXPECT_EQ(s.stats().ring_doorbells, before.ring_doorbells) << "staged, not yet published";
  EXPECT_EQ(s.stats().async_enqueued, before.async_enqueued);
  s.sys.allocator->Free(an, blocks.back());
  EXPECT_EQ(s.stats().ring_doorbells - before.ring_doorbells, 1u);
  EXPECT_EQ(s.stats().free_batches - before.free_batches, 1u);
  EXPECT_EQ(s.stats().async_enqueued - before.async_enqueued, 16u);
  s.Finish(an);
}

// ---- Per-tenant SLO plumbing ----

TEST(TenantSlo, RunResultCarriesOneDigestPerTenantInConfigOrder) {
  Machine machine(MachineConfig::Default(6));
  TelemetryConfig tc;
  tc.enabled = true;
  machine.EnableTelemetry(tc);
  const NgxConfig cfg = TenantMixConfig();
  auto sys = MakeNgxSystem(machine, cfg, {4, 5});
  ChurnConfig wl;
  wl.live_blocks = 80;
  wl.ops = 600;
  Churn workload(wl);
  RunOptions opt;
  opt.cores = {0, 1, 2, 3};
  opt.server_cores = {4, 5};
  opt.seed = 3;
  const RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  ASSERT_EQ(r.tenant_names.size(), 3u);
  ASSERT_EQ(r.tenant_sync_latency.size(), 3u);
  EXPECT_EQ(r.tenant_names[0], "frontend");
  EXPECT_EQ(r.tenant_names[1], "analytics");
  EXPECT_EQ(r.tenant_names[2], "cache");
  for (std::size_t t = 0; t < r.tenant_names.size(); ++t) {
    EXPECT_GT(r.tenant_sync_latency[t].count, 0u)
        << r.tenant_names[t] << " must have recorded sync round trips";
    EXPECT_GE(r.tenant_sync_latency[t].p99, r.tenant_sync_latency[t].p50)
        << r.tenant_names[t];
  }
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees);
}

TEST(TenantSlo, NoTenantsMeansNoDigests) {
  Machine machine(MachineConfig::Default(3));
  TelemetryConfig tc;
  tc.enabled = true;
  machine.EnableTelemetry(tc);
  auto sys = MakeNgxSystem(machine, NgxConfig::PaperPrototype(), 2);
  ChurnConfig wl;
  wl.live_blocks = 40;
  wl.ops = 200;
  Churn workload(wl);
  RunOptions opt;
  opt.cores = {0, 1};
  opt.server_cores = {2};
  const RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  EXPECT_TRUE(r.tenant_names.empty());
  EXPECT_TRUE(r.tenant_sync_latency.empty());
}

}  // namespace
}  // namespace ngx
