// Tenant tests (DESIGN.md §15):
//
//  * the tenant plan (ResolveTenantPlan, no machine or fabric): free_batch
//    overrides land on the claimed cores, inheriting tenants and unclaimed
//    cores keep the global free_batch, and a pipelined stash splits the
//    global capacity into halves and spill on every core;
//  * a free_batch of one whole ring fits it;
//  * NGX_CHECK death tests for malformed tenants, on the resolver: a
//    free_batch of 0 or beyond one ring, unnamed and duplicate tenants,
//    out-of-range, double-claimed and server cores, and a pipelined stash
//    of zero capacity;
//  * a shared shard at the engine: one server clock, so DrainAll serves the
//    tenants' rings in client order, whoever published first, and a sync
//    request sent during another tenant's service waits for that service
//    and no longer;
//  * a shared shard on the full system: an unbatched tenant rings one
//    doorbell per free, a free_batch-16 tenant one per sixteen, and an
//    inheriting tenant one per global batch;
//  * per-tenant SLO plumbing: RunResult carries one sync-latency digest per
//    configured tenant, in NgxConfig::tenants order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/nextgen_malloc.h"
#include "src/core/tenant_plan.h"
#include "src/offload/offload_engine.h"
#include "src/workload/churn.h"
#include "src/workload/runner.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

// ---- Registration-time resolution ----

// The four-tenant mix the QoS ablation uses, at test scale: an unbatched
// tenant and a free_batch-32 tenant share shard 0, a free_batch-8 tenant
// rides shard 1, and core 1 stays on the implicit default tenant.
NgxConfig TenantMixConfig() {
  NgxConfig cfg;  // offloaded, async frees, segregated metadata
  cfg.num_shards = 2;
  TenantSpec fe;
  fe.name = "frontend";
  fe.cores = {0};
  fe.free_batch = 1;
  TenantSpec an;
  an.name = "analytics";
  an.cores = {2};
  an.free_batch = 32;
  TenantSpec ca;
  ca.name = "cache";
  ca.cores = {3};
  ca.free_batch = 8;
  cfg.tenants = {fe, an, ca};
  return cfg;
}

TEST(TenantResolution, FreeBatchesLandOnTheClaimedCores) {
  const TenantPlan plan = ResolveTenantPlan(TenantMixConfig(), /*num_cores=*/6,
                                            /*server_cores=*/{4, 5});
  ASSERT_EQ(plan.tenant_names.size(), 3u);
  EXPECT_EQ(plan.tenant_names[0], "frontend");
  EXPECT_EQ(plan.tenant_names[1], "analytics");
  EXPECT_EQ(plan.tenant_names[2], "cache");
  EXPECT_EQ(plan.cores[0].tenant, 0);
  EXPECT_EQ(plan.cores[2].tenant, 1);
  EXPECT_EQ(plan.cores[3].tenant, 2);
  EXPECT_EQ(plan.cores[0].free_batch, 1u);
  EXPECT_EQ(plan.cores[2].free_batch, 32u);
  EXPECT_EQ(plan.cores[3].free_batch, 8u);
}

TEST(TenantResolution, UnclaimedCoresKeepTheGlobalContract) {
  NgxConfig cfg = TenantMixConfig();
  cfg.free_batch = 4;
  const TenantPlan plan = ResolveTenantPlan(cfg, 6, {4, 5});
  EXPECT_EQ(plan.cores[1].tenant, -1) << "core 1 runs the implicit default tenant";
  EXPECT_EQ(plan.cores[1].free_batch, 4u);
  EXPECT_EQ(plan.cores[4].free_batch, 4u) << "server cores keep the global value too";
}

// A tenant that leaves free_batch at kInherit batches at the global value,
// whatever that value is, exactly like an unclaimed core.
TEST(TenantResolution, AllDefaultTenantListMatchesTheNoTenantResolution) {
  for (const std::uint32_t global : {1u, 8u, kNgxRingCapacity}) {
    NgxConfig plain;
    plain.num_shards = 2;
    plain.free_batch = global;
    NgxConfig listed = plain;
    TenantSpec t;
    t.name = "default_tenant";
    t.cores = {0, 1};  // free_batch at kInherit
    listed.tenants = {t};
    const TenantPlan plan_plain = ResolveTenantPlan(plain, 4, {2, 3});
    const TenantPlan plan_listed = ResolveTenantPlan(listed, 4, {2, 3});
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(plan_listed.cores[c].tenant, 0);
      EXPECT_EQ(plan_listed.cores[c].free_batch, global);
      EXPECT_EQ(plan_plain.cores[c].free_batch, global);
    }
    EXPECT_EQ(plan_plain.pipe_cap, plan_listed.pipe_cap);
    EXPECT_EQ(plan_plain.spill_depth, plan_listed.spill_depth);
  }
}

// A pipelined stash uses at most one line's worth of each half and keeps
// the rest of the global capacity as a client-only spill stack; a capacity
// that fits inside the halves has no spill, and without the pipeline
// neither depth exists. Tenants do not change the split.
TEST(TenantPlan, PipelinedCoresSplitTheirCapacityIntoHalvesAndSpill) {
  NgxConfig cfg;
  cfg.prediction = true;
  cfg.stash_pipeline = true;
  cfg.stash_capacity = 40;
  TenantSpec batched;
  batched.name = "batched";
  batched.cores = {0};
  batched.free_batch = 8;
  cfg.tenants = {batched};
  const TenantPlan plan = ResolveTenantPlan(cfg, 3, {2});
  EXPECT_EQ(plan.pipe_cap, kPipeHalfCap);
  EXPECT_EQ(plan.spill_depth, 40u - 2 * kPipeHalfCap);
  cfg.stash_capacity = 2 * kPipeHalfCap;  // exactly the two halves
  const TenantPlan halves = ResolveTenantPlan(cfg, 3, {2});
  EXPECT_EQ(halves.pipe_cap, kPipeHalfCap);
  EXPECT_EQ(halves.spill_depth, 0u);
  cfg.stash_capacity = 4;  // less than one half
  const TenantPlan shallow = ResolveTenantPlan(cfg, 3, {2});
  EXPECT_EQ(shallow.pipe_cap, 4u);
  EXPECT_EQ(shallow.spill_depth, 0u);
  cfg.stash_capacity = 40;
  cfg.stash_pipeline = false;
  const TenantPlan unpipelined = ResolveTenantPlan(cfg, 3, {2});
  EXPECT_EQ(unpipelined.pipe_cap, 0u);
  EXPECT_EQ(unpipelined.spill_depth, 0u);
}

// The largest free_batch the resolver accepts fills the ring exactly: the
// batch publishes with one doorbell and never stalls on a full ring.
TEST(TenantResolution, WholeRingFreeBatchPublishesWithoutAStall) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  TenantSpec t;
  t.name = "bulk";
  t.cores = {0};
  t.free_batch = kNgxRingCapacity;
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

// ---- Malformed-tenant death tests ----

TEST(TenantConfigDeath, ZeroFreeBatchAborts) {
  NgxConfig cfg;
  TenantSpec t;
  t.name = "stuck";
  t.cores = {0};
  t.free_batch = 0;
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, {2}),
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
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, {2}), "duplicate tenant name");
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
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, {2}), "claimed by two tenants");
}

TEST(TenantConfigDeath, ClaimingAServerCoreAborts) {
  NgxConfig cfg;
  TenantSpec t;
  t.name = "greedy";
  t.cores = {2};  // the shard server core
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, {2}), "server core");
}

TEST(TenantConfigDeath, CoreBeyondTheMachineAborts) {
  NgxConfig cfg;
  TenantSpec t;
  t.name = "lost";
  t.cores = {3};  // a three-core machine
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, {2}), "tenant core out of range");
}

TEST(TenantConfigDeath, FreeBatchBeyondOneRingAborts) {
  NgxConfig cfg;
  TenantSpec t;
  t.name = "overflow";
  t.cores = {0};
  t.free_batch = kNgxRingCapacity + 1;
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, {2}),
                            "tenant free_batch must fit in one async ring");
}

TEST(TenantConfigDeath, UnnamedTenantAborts) {
  NgxConfig cfg;
  TenantSpec t;  // empty name: nothing to label its SLO series with
  t.cores = {0};
  cfg.tenants = {t};
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, {2}), "tenant needs a name");
}

TEST(TenantConfigDeath, PipelinedStashOfZeroCapacityAborts) {
  NgxConfig cfg;
  cfg.prediction = true;
  cfg.stash_pipeline = true;
  cfg.stash_capacity = 0;
  EXPECT_DEATH_IF_SUPPORTED((void)ResolveTenantPlan(cfg, 3, {2}),
                            "pipelined stash needs a nonzero capacity");
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

// An unbatched tenant (core 0), a free_batch-16 tenant (core 1) and an
// inheriting tenant (core 2) on one shard (server core 3), over a global
// free_batch of 8.
struct SharedShardSystem {
  std::unique_ptr<Machine> machine = MakeMachine(4);
  NgxSystem sys;

  SharedShardSystem() {
    NgxConfig cfg;
    cfg.free_batch = 8;
    TenantSpec fe;
    fe.name = "frontend";
    fe.cores = {0};
    fe.free_batch = 1;
    TenantSpec an;
    an.name = "analytics";
    an.cores = {1};
    an.free_batch = 16;
    TenantSpec wk;
    wk.name = "worker";
    wk.cores = {2};
    cfg.tenants = {fe, an, wk};
    sys = MakeNgxSystem(*machine, cfg, {3});
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

// Batches are per client ring: an unbatched tenant's frees publish at once
// while another tenant's staged batch on the same shard stays unpublished.
TEST(TenantSharedShard, UnbatchedFreesPublishPastAnotherTenantsStagedBatch) {
  SharedShardSystem s;
  Env fe(*s.machine, 0);
  Env an(*s.machine, 1);
  const std::vector<Addr> fe_blocks = s.MallocBlocks(fe, 3);
  const std::vector<Addr> an_blocks = s.MallocBlocks(an, 5);
  const OffloadEngineStats before = s.stats();
  for (const Addr a : an_blocks) {
    s.sys.allocator->Free(an, a);
  }
  for (const Addr a : fe_blocks) {
    s.sys.allocator->Free(fe, a);
  }
  EXPECT_EQ(s.stats().staged_frees - before.staged_frees, 5u);
  EXPECT_EQ(s.stats().free_batches, before.free_batches) << "analytics' batch is not full";
  EXPECT_EQ(s.stats().ring_doorbells - before.ring_doorbells, 3u);
  EXPECT_EQ(s.stats().async_enqueued - before.async_enqueued, 3u)
      << "only the unbatched frees are visible to the shard";
  s.sys.allocator->Flush(an);
  EXPECT_EQ(s.stats().free_batches - before.free_batches, 1u)
      << "Flush publishes the partial batch";
  s.Finish(fe);
}

TEST(TenantSharedShard, InheritingTenantRingsOneDoorbellPerGlobalBatch) {
  SharedShardSystem s;
  Env wk(*s.machine, 2);
  const std::vector<Addr> blocks = s.MallocBlocks(wk, 16);
  const OffloadEngineStats before = s.stats();
  for (const Addr a : blocks) {
    s.sys.allocator->Free(wk, a);
  }
  EXPECT_EQ(s.stats().staged_frees - before.staged_frees, 16u);
  EXPECT_EQ(s.stats().ring_doorbells - before.ring_doorbells, 2u) << "16 frees, batches of 8";
  EXPECT_EQ(s.stats().free_batches - before.free_batches, 2u);
  s.Finish(wk);
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
