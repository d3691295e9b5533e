// Per-tenant traits + QoS lane tests (DESIGN.md §15):
//
//  * preset contract units: every TenantPreset parses/round-trips and fills
//    exactly the knobs its contract implies (explicit overrides win);
//  * the tenant plan (ResolveTenantPlan, no machine or fabric): presets and
//    overrides land on the claimed cores, unclaimed cores keep the global
//    NgxConfig contract, watermark overrides bind to the home shard, and
//    pipelined cores split their capacity into halves and spill; on a full
//    system, numa_local and explicit home-shard pins route mallocs to the
//    contracted shard;
//  * NGX_CHECK death tests for malformed traits, on the resolver: stash
//    capacity below the pipeline's two-half minimum, free_batch=0 with lanes
//    on, unknown preset, duplicate names, double-claimed cores and claimed
//    server cores;
//  * lane admission behavior at the engine: DrainAll serves rings in
//    lane-priority order, a latency-lane sync never queues behind a bulk
//    tenant's expensive window (the shadow no-bulk schedule), and admission
//    is inert for a tenant running alone;
//  * per-tenant SLO plumbing: RunResult carries one sync-latency digest per
//    configured tenant, in NgxConfig::tenants order.
#include <gtest/gtest.h>

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

TEST(TenantTraitsUnit, LowLatencyContractRidesTheLatencyLaneUnbatched) {
  const TenantTraits t = MakeTenantTraits("low_latency");
  EXPECT_EQ(t.preset, TenantPreset::kLowLatency);
  EXPECT_EQ(t.lane, QosLane::kLatency);
  EXPECT_EQ(t.free_batch, 1u);
  EXPECT_EQ(t.stash_capacity, TenantTraits::kInherit);
  EXPECT_EQ(t.span_low_mark, TenantTraits::kInherit64);
  EXPECT_EQ(t.home_shard, -1);
}

TEST(TenantTraitsUnit, ThroughputContractBatchesOnTheBulkLane) {
  const TenantTraits t = MakeTenantTraits("throughput");
  EXPECT_EQ(t.lane, QosLane::kBulk);
  EXPECT_EQ(t.free_batch, 16u);
  EXPECT_EQ(t.stash_capacity, TenantTraits::kInherit);
}

TEST(TenantTraitsUnit, EphemeralContractDeepensTheStash) {
  const TenantTraits t = MakeTenantTraits("ephemeral");
  EXPECT_EQ(t.lane, QosLane::kNormal);
  EXPECT_EQ(t.stash_capacity, 32u);
  EXPECT_EQ(t.free_batch, 8u);
}

TEST(TenantTraitsUnit, DefaultAndNumaLocalInheritEveryKnob) {
  for (const char* name : {"default", "numa_local"}) {
    const TenantTraits t = MakeTenantTraits(name);
    EXPECT_EQ(t.lane, QosLane::kNormal) << name;
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
  cfg.lane_quantum = 8;
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
  EXPECT_EQ(plan.cores[0].lane, QosLane::kLatency);
  EXPECT_EQ(plan.cores[0].free_batch, 1u);
  EXPECT_EQ(plan.cores[2].lane, QosLane::kBulk);
  EXPECT_EQ(plan.cores[2].free_batch, 32u) << "explicit override must beat the preset";
  EXPECT_EQ(plan.cores[3].stash_capacity, 32u) << "ephemeral deepens the stash";
  EXPECT_EQ(plan.cores[3].free_batch, 8u);
}

TEST(TenantResolution, UnclaimedCoresKeepTheGlobalContract) {
  const NgxConfig cfg = TenantMixConfig();
  const TenantPlan plan = ResolveTenantPlan(cfg, 6, 0, {4, 5});
  EXPECT_EQ(plan.cores[1].tenant, -1) << "core 1 runs the implicit default tenant";
  EXPECT_EQ(plan.cores[1].lane, QosLane::kNormal);
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
    EXPECT_EQ(plan_plain.cores[c].lane, plan_listed.cores[c].lane);
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

TEST(TenantConfigDeath, ZeroFreeBatchWithLanesOnAborts) {
  NgxConfig cfg;
  cfg.lane_quantum = 8;
  TenantSpec t;
  t.name = "stuck";
  t.traits.free_batch = 0;
  t.cores = {0};
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, 0, {2}),
                            "free_batch=0 with QoS lanes on");
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

// ---- Lane admission at the engine ----

constexpr Addr kQosChannelBase = 0x0700'0000'0000ull;

// Records the order clients were served in, with a tunable per-request cost.
class OrderRecordingServer : public OffloadServer {
 public:
  std::uint64_t HandleRequest(Env& env, int client, OffloadOp op,
                              std::uint64_t arg) override {
    env.Work(work_per_request);
    served.push_back(client);
    (void)op;
    return arg + 1;
  }

  std::uint64_t work_per_request = 50;
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
};

TEST(QosLaneAdmission, DrainAllServesRingsInLanePriorityOrder) {
  EngineRig rig;
  rig.engine->set_client_lane(0, QosLane::kBulk);
  rig.engine->set_client_lane(1, QosLane::kLatency);
  rig.engine->set_client_lane(2, QosLane::kNormal);
  rig.engine->set_lane_admission(8);
  Env bulk(*rig.machine, 0);
  Env lat(*rig.machine, 1);
  Env norm(*rig.machine, 2);
  // Bulk pushes first; client index order would also favor it.
  rig.engine->AsyncRequest(bulk, OffloadOp::kFree, 1);
  rig.engine->AsyncRequest(norm, OffloadOp::kFree, 2);
  rig.engine->AsyncRequest(lat, OffloadOp::kFree, 3);
  rig.engine->DrainAll();
  ASSERT_EQ(rig.server.served.size(), 3u);
  EXPECT_EQ(rig.server.served[0], 1) << "latency lane drains first";
  EXPECT_EQ(rig.server.served[1], 2) << "normal lane drains second";
  EXPECT_EQ(rig.server.served[2], 0) << "bulk lane drains last";
}

TEST(QosLaneAdmission, DrainAllKeepsClientOrderWhenAdmissionIsOff) {
  EngineRig rig;
  rig.engine->set_client_lane(0, QosLane::kBulk);
  rig.engine->set_client_lane(1, QosLane::kLatency);
  // Classification alone never changes behavior: quantum stays 0.
  Env bulk(*rig.machine, 0);
  Env lat(*rig.machine, 1);
  rig.engine->AsyncRequest(bulk, OffloadOp::kFree, 1);
  rig.engine->AsyncRequest(lat, OffloadOp::kFree, 2);
  rig.engine->DrainAll();
  ASSERT_EQ(rig.server.served.size(), 2u);
  EXPECT_EQ(rig.server.served[0], 0);
  EXPECT_EQ(rig.server.served[1], 1);
}

// The observed round-trip of a latency-lane sync issued right after a bulk
// tenant's expensive window: with admission on, the shadow no-bulk schedule
// serves it as if the bulk window had been deferred.
std::uint64_t LatencySyncBehindBulkWindow(bool lanes_on) {
  EngineRig rig;
  rig.engine->set_client_lane(0, QosLane::kBulk);
  rig.engine->set_client_lane(1, QosLane::kLatency);
  if (lanes_on) {
    rig.engine->set_lane_admission(8);
  }
  Env bulk(*rig.machine, 0);
  Env lat(*rig.machine, 1);
  // The bulk request runs the server clock far ahead of the latency client.
  rig.server.work_per_request = 5000;
  rig.engine->SyncRequest(bulk, OffloadOp::kMalloc, 1);
  rig.server.work_per_request = 50;
  const std::uint64_t t0 = lat.now();
  rig.engine->SyncRequest(lat, OffloadOp::kMalloc, 2);
  return lat.now() - t0;
}

TEST(QosLaneAdmission, LatencySyncNeverQueuesBehindABulkWindow) {
  const std::uint64_t off = LatencySyncBehindBulkWindow(false);
  const std::uint64_t on = LatencySyncBehindBulkWindow(true);
  // The bulk handler's Work(5000) dominates the lanes-off round trip
  // (whatever the core's CPI makes of it); with admission on the latency
  // sync must not see that window at all -- only its own ~Work(50) service.
  EXPECT_GT(off, 2000u) << "lanes off, the sync queues behind the bulk service";
  EXPECT_LT(2 * on, off) << "lanes on, the bulk window is deferred past the doorbell";
  EXPECT_LT(on, 1000u);
}

// A latency tenant running alone sees the same clocks with admission on or
// off: the shadow schedule degenerates to the real one when there is no
// bulk work to defer.
TEST(QosLaneAdmission, AdmissionIsInertForATenantRunningAlone) {
  auto run = [](bool lanes_on) {
    EngineRig rig;
    rig.engine->set_client_lane(0, QosLane::kLatency);
    if (lanes_on) {
      rig.engine->set_lane_admission(8);
    }
    Env env(*rig.machine, 0);
    for (int i = 0; i < 20; ++i) {
      rig.engine->SyncRequest(env, OffloadOp::kMalloc, static_cast<std::uint64_t>(i));
      rig.engine->AsyncRequest(env, OffloadOp::kFree, static_cast<std::uint64_t>(i));
    }
    rig.engine->DrainAll();
    return std::make_pair(env.now(), rig.machine->core(rig.machine->num_cores() - 1).now());
  };
  EXPECT_EQ(run(false), run(true));
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
