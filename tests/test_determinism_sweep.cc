// Parameterized determinism and robustness sweeps across seeds and thread
// counts: the simulator must be bit-reproducible, and every allocator must
// stay balanced for any seed.
#include <gtest/gtest.h>

#include <string>

#include "bench/bench_common.h"
#include "src/alloc/registry.h"
#include "src/core/nextgen_malloc.h"
#include "src/workload/churn.h"
#include "src/workload/runner.h"
#include "src/workload/xalanc.h"
#include "src/workload/xmalloc.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

class SeedSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweepTest, XalancDeterministicPerSeed) {
  auto run = [&] {
    Machine machine(MachineConfig::ScaledWorkstation(1));
    auto alloc = CreateAllocator("tcmalloc", machine);
    XalancConfig cfg;
    cfg.documents = 2;
    cfg.nodes_per_doc = 500;
    XalancLike workload(cfg);
    RunOptions opt;
    opt.cores = {0};
    opt.seed = GetParam();
    return RunWorkload(machine, *alloc, workload, opt);
  };
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_EQ(a.app.cycles, b.app.cycles);
  EXPECT_EQ(a.app.llc_load_misses, b.app.llc_load_misses);
  EXPECT_EQ(a.app.dtlb_load_misses, b.app.dtlb_load_misses);
  EXPECT_EQ(a.alloc_stats.mallocs, b.alloc_stats.mallocs);
}

TEST_P(SeedSweepTest, EveryAllocatorBalancedOnChurn) {
  for (const std::string& name : BaselineAllocatorNames()) {
    Machine machine(MachineConfig::Default(2));
    auto alloc = CreateAllocator(name, machine);
    ChurnConfig cfg;
    cfg.live_blocks = 150;
    cfg.ops = 800;
    Churn workload(cfg);
    RunOptions opt;
    opt.cores = {0, 1};
    opt.seed = GetParam();
    RunWorkload(machine, *alloc, workload, opt);
    const AllocatorStats s = alloc->stats();
    EXPECT_EQ(s.mallocs, s.frees) << name << " seed " << GetParam();
    EXPECT_EQ(s.oom_failures, 0u) << name;
  }
}

// ---- Watermark rebalancing determinism ----
//
// The watermark ticks run from scheduler timer hooks and post-drain hooks, so
// they are the newest candidate source of nondeterminism: these sweeps pin
// the whole span economy (donations, returns, per-shard PMU streams) to the
// seed.

struct RebalanceRunState {
  std::vector<PmuCounters> per_server;
  std::vector<std::uint64_t> free_spans;
  std::uint64_t donated = 0;
  std::uint64_t returned = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t async_ops = 0;
  AllocatorStats stats;
};

RebalanceRunState RunRebalancingChurn(std::uint64_t seed, std::uint32_t free_batch) {
  Machine machine(MachineConfig::Default(6));
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.hugepage_spans = false;          // 64 KiB grants: donation reachable
  cfg.heap_window = 32 * 1024 * 1024;  // 256 spans per shard
  cfg.span_donation = true;
  cfg.span_low_mark = 16;
  cfg.span_high_mark = 32;
  cfg.free_batch = free_batch;
  NgxSystem sys = MakeNgxSystem(machine, cfg, {4, 5});
  ChurnConfig wl;
  wl.live_blocks = 50;
  wl.ops = 700;
  wl.min_size = 256;
  wl.max_size = 48 * 1024;  // large tail keeps spans mapping and unmapping
  Churn workload(wl);
  RunOptions opt;
  opt.cores = {0, 1, 2, 3};
  opt.server_cores = {4, 5};
  opt.seed = seed;
  const RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  RebalanceRunState out;
  out.per_server = r.per_server;
  const SpanDirectory& d = *sys.allocator->directory();
  for (int s = 0; s < cfg.num_shards; ++s) {
    out.free_spans.push_back(d.free_spans(s));
  }
  out.donated = d.total_donated();
  out.returned = d.total_returned();
  out.doorbells = sys.fabric->TotalStats().ring_doorbells;
  out.async_ops = sys.fabric->TotalStats().async_ops;
  out.stats = sys.allocator->stats();
  return out;
}

TEST_P(SeedSweepTest, RebalancingFabricDeterministicPerSeed) {
  const RebalanceRunState a = RunRebalancingChurn(GetParam(), 8);
  const RebalanceRunState b = RunRebalancingChurn(GetParam(), 8);
  ASSERT_EQ(a.per_server.size(), b.per_server.size());
  for (std::size_t s = 0; s < a.per_server.size(); ++s) {
    EXPECT_EQ(a.per_server[s].cycles, b.per_server[s].cycles) << "shard " << s;
    EXPECT_EQ(a.per_server[s].instructions, b.per_server[s].instructions) << "shard " << s;
    EXPECT_EQ(a.per_server[s].llc_load_misses, b.per_server[s].llc_load_misses)
        << "shard " << s;
    EXPECT_EQ(a.per_server[s].dtlb_load_misses, b.per_server[s].dtlb_load_misses)
        << "shard " << s;
  }
  EXPECT_EQ(a.free_spans, b.free_spans);
  EXPECT_EQ(a.donated, b.donated) << "span donations must replay bit-identically";
  EXPECT_EQ(a.returned, b.returned) << "span returns must replay bit-identically";
  EXPECT_EQ(a.doorbells, b.doorbells);
  EXPECT_EQ(a.stats.mallocs, b.stats.mallocs);
  EXPECT_EQ(a.stats.bytes_live, b.stats.bytes_live);
}

// free_batch only changes WHEN frees cross the fabric, never what the
// program observes: the logical end state (mallocs, frees, live bytes, no
// OOM) is identical for batch sizes 1 and 8; only the doorbell count drops.
TEST_P(SeedSweepTest, FreeBatchChangesOnlyTheDoorbellCount) {
  const RebalanceRunState b1 = RunRebalancingChurn(GetParam(), 1);
  const RebalanceRunState b8 = RunRebalancingChurn(GetParam(), 8);
  EXPECT_EQ(b1.stats.mallocs, b8.stats.mallocs);
  EXPECT_EQ(b1.stats.frees, b8.stats.frees);
  EXPECT_EQ(b1.stats.bytes_requested, b8.stats.bytes_requested);
  EXPECT_EQ(b1.stats.bytes_live, b8.stats.bytes_live);
  EXPECT_EQ(b1.stats.oom_failures, 0u);
  EXPECT_EQ(b8.stats.oom_failures, 0u);
  EXPECT_EQ(b1.async_ops, b8.async_ops) << "same free entries cross the ring";
  EXPECT_GT(b1.doorbells, b8.doorbells) << "batching must amortize doorbells";
}

// ---- Stash pipeline determinism ----
//
// The pipelined stash adds client/server overlap bookkeeping (kicked ring
// drains on the server's own clock, seqlock publishes, register-resident
// count mirrors, the producer-side ring index cache): the newest candidate
// source of nondeterminism. Two identical pipeline-on runs must agree on
// every PMU stream, clock, and protocol counter.
TEST_P(SeedSweepTest, StashPipelineDeterministicPerSeed) {
  struct PipeRun {
    RunResult r;
    std::uint64_t refills, flips, stalls, recycles, syncs;
  };
  auto run = [&] {
    Machine machine(MachineConfig::Default(3));
    NgxConfig cfg;
    cfg.prediction = true;
    cfg.stash_pipeline = true;
    NgxSystem sys = MakeNgxSystem(machine, cfg, 2);
    ChurnConfig wl;
    wl.live_blocks = 120;
    wl.ops = 1200;
    Churn workload(wl);
    RunOptions opt;
    opt.cores = {0, 1};
    opt.server_cores = {2};
    opt.seed = GetParam();
    PipeRun out{RunWorkload(machine, *sys.allocator, workload, opt), 0, 0, 0, 0, 0};
    sys.fabric->DrainAll();
    out.refills = sys.allocator->stash_refills();
    out.flips = sys.allocator->stash_flips();
    out.stalls = sys.allocator->stash_starvation_stalls();
    out.recycles = sys.allocator->stash_recycled_frees();
    out.syncs = sys.allocator->sync_mallocs();
    return out;
  };
  const PipeRun a = run();
  const PipeRun b = run();
  EXPECT_EQ(a.r.wall_cycles, b.r.wall_cycles);
  EXPECT_EQ(a.r.app.cycles, b.r.app.cycles);
  EXPECT_EQ(a.r.app.instructions, b.r.app.instructions);
  EXPECT_EQ(a.r.app.llc_load_misses, b.r.app.llc_load_misses);
  EXPECT_EQ(a.r.app.llc_store_misses, b.r.app.llc_store_misses);
  EXPECT_EQ(a.r.app.dtlb_load_misses, b.r.app.dtlb_load_misses);
  EXPECT_EQ(a.r.app.remote_hitm, b.r.app.remote_hitm);
  EXPECT_EQ(a.r.server.cycles, b.r.server.cycles);
  EXPECT_EQ(a.r.server.llc_load_misses, b.r.server.llc_load_misses);
  EXPECT_EQ(a.refills, b.refills) << "background refill stream must replay exactly";
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_EQ(a.stalls, b.stalls);
  EXPECT_EQ(a.recycles, b.recycles);
  EXPECT_EQ(a.syncs, b.syncs);
  EXPECT_EQ(a.r.alloc_stats.mallocs, b.r.alloc_stats.mallocs);
  EXPECT_EQ(a.r.alloc_stats.frees, b.r.alloc_stats.frees);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1ull, 2ull, 42ull, 0xdeadbeefull, 123456789ull));

// ---- Flight recorder observability ----
//
// The flight recorder (DESIGN.md §13) promises pure observation: a run with
// the recorder on (traffic matrix, periodic heap snapshots, cycle
// attribution) must replay the exact same simulated history as the same run
// with it off, across shard counts and both heap layouts.

struct RecorderRunState {
  RunResult r;
  std::vector<std::uint64_t> free_spans;
};

RecorderRunState RunRecorderChurn(int shards, HeapKind kind, bool recorder) {
  const int clients = 4;
  Machine machine(MachineConfig::Default(clients + shards));
  if (recorder) {
    TelemetryConfig tc;
    tc.enabled = true;
    tc.recorder = true;
    tc.recorder_snapshot_interval = 200000;  // many snapshots per run
    machine.EnableTelemetry(tc);
  }
  NgxConfig cfg;
  cfg.num_shards = shards;
  cfg.heap_kind = kind;
  cfg.hugepage_spans = false;          // 64 KiB grants, like the sweeps above
  cfg.heap_window = 32 * 1024 * 1024;
  std::vector<int> servers;
  for (int s = 0; s < shards; ++s) {
    servers.push_back(clients + s);
  }
  NgxSystem sys = MakeNgxSystem(machine, cfg, servers);
  ChurnConfig wl;
  wl.live_blocks = 120;
  wl.ops = 1500;
  wl.min_size = 16;
  wl.max_size = 48 * 1024;  // large tail exercises the large paths too
  Churn workload(wl);
  RunOptions opt;
  opt.cores = {0, 1, 2, 3};
  opt.server_cores = servers;
  opt.seed = 42;
  RecorderRunState out{RunWorkload(machine, *sys.allocator, workload, opt), {}};
  sys.fabric->DrainAll();
  // Single-shard systems have no span directory (nothing to rebalance).
  if (const SpanDirectory* d = sys.allocator->directory()) {
    for (int s = 0; s < shards; ++s) {
      out.free_spans.push_back(d->free_spans(s));
    }
  }
  return out;
}

class RecorderSweepTest
    : public ::testing::TestWithParam<std::tuple<int, HeapKind>> {};

TEST_P(RecorderSweepTest, FlightRecorderIsPurelyObservational) {
  const int shards = std::get<0>(GetParam());
  const HeapKind kind = std::get<1>(GetParam());
  const RecorderRunState off = RunRecorderChurn(shards, kind, false);
  const RecorderRunState on = RunRecorderChurn(shards, kind, true);

  EXPECT_EQ(off.r.wall_cycles, on.r.wall_cycles);
  ASSERT_EQ(off.r.per_core.size(), on.r.per_core.size());
  for (std::size_t c = 0; c < off.r.per_core.size(); ++c) {
    EXPECT_EQ(off.r.per_core[c].cycles, on.r.per_core[c].cycles) << "core " << c;
    EXPECT_EQ(off.r.per_core[c].instructions, on.r.per_core[c].instructions)
        << "core " << c;
    EXPECT_EQ(off.r.per_core[c].llc_load_misses, on.r.per_core[c].llc_load_misses)
        << "core " << c;
    EXPECT_EQ(off.r.per_core[c].llc_store_misses, on.r.per_core[c].llc_store_misses)
        << "core " << c;
    EXPECT_EQ(off.r.per_core[c].dtlb_load_misses, on.r.per_core[c].dtlb_load_misses)
        << "core " << c;
    EXPECT_EQ(off.r.per_core[c].atomic_rmws, on.r.per_core[c].atomic_rmws)
        << "core " << c;
    EXPECT_EQ(off.r.per_core[c].alloc_cycles, on.r.per_core[c].alloc_cycles)
        << "core " << c;
  }
  EXPECT_EQ(off.r.alloc_stats.mallocs, on.r.alloc_stats.mallocs);
  EXPECT_EQ(off.r.alloc_stats.frees, on.r.alloc_stats.frees);
  EXPECT_EQ(off.r.alloc_stats.bytes_live, on.r.alloc_stats.bytes_live);
  EXPECT_EQ(off.r.alloc_stats.mapped_bytes, on.r.alloc_stats.mapped_bytes);
  EXPECT_EQ(off.free_spans, on.free_spans);

  // The recorder run must actually have recorded something for the
  // comparison to mean anything.
  EXPECT_FALSE(off.r.recorder_enabled);
  ASSERT_TRUE(on.r.recorder_enabled);
  EXPECT_GT(on.r.attribution.total(), 0u);
  EXPECT_FALSE(on.r.snapshots.empty()) << "periodic snapshots must have fired";
  ASSERT_EQ(on.r.final_snapshot.shards.size(), static_cast<std::size_t>(shards));
  std::uint64_t matrix_mallocs = 0;
  for (int cl = 0; cl < on.r.traffic_matrix.num_clients(); ++cl) {
    for (int sh = 0; sh < on.r.traffic_matrix.num_shards(); ++sh) {
      if (const TrafficCell* cell = on.r.traffic_matrix.CellOrNull(cl, sh)) {
        matrix_mallocs += cell->mallocs + cell->large_mallocs;
      }
    }
  }
  EXPECT_EQ(matrix_mallocs, on.r.alloc_stats.mallocs)
      << "every malloc must land in exactly one matrix cell";
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByHeap, RecorderSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(HeapKind::kAggregated, HeapKind::kSegment)));

// ---- Adaptive-routing off switch ----
//
// NgxConfig::adaptive_routing = false promises bit-identity with
// pre-adaptive builds REGARDLESS of the other fleet knobs: no epoch timer is
// registered, no traffic matrix is tracked, every shard stays active. A run
// with aggressive fleet knobs but the controller off must replay the default
// config's exact history across shard counts and both heap layouts.

struct FleetOffRunState {
  RunResult r;
  std::vector<std::uint64_t> free_spans;
  // The fleet controller's books (zero or empty without a control plane).
  std::uint64_t routing_epochs = 0;
  std::uint64_t client_moves = 0;
  std::uint64_t shards_parked = 0;
  std::uint64_t parked_core_cycles = 0;
  std::vector<FleetEpoch> fleet_timeline;
};

FleetOffRunState RunFleetOffChurn(int shards, HeapKind kind, bool aggressive_knobs) {
  const int clients = 4;
  Machine machine(MachineConfig::Default(clients + shards));
  NgxConfig cfg;
  cfg.num_shards = shards;
  cfg.heap_kind = kind;
  cfg.hugepage_spans = false;
  cfg.heap_window = 32 * 1024 * 1024;
  if (aggressive_knobs) {
    // Every fleet knob armed -- but the controller itself stays off, so none
    // of this may reach the simulation.
    cfg.adaptive_routing = false;
    cfg.epoch_cycles = 1000;
    cfg.park_threshold_ops = 1u << 30;  // would park everything if live
    cfg.wake_queue_depth = 1;
  }
  std::vector<int> servers;
  for (int s = 0; s < shards; ++s) {
    servers.push_back(clients + s);
  }
  NgxSystem sys = MakeNgxSystem(machine, cfg, servers);
  ChurnConfig wl;
  wl.live_blocks = 120;
  wl.ops = 1500;
  wl.min_size = 16;
  wl.max_size = 48 * 1024;
  Churn workload(wl);
  RunOptions opt;
  opt.cores = {0, 1, 2, 3};
  opt.server_cores = servers;
  opt.seed = 42;
  FleetOffRunState out;
  out.r = RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  const ControlPlane* control = sys.allocator->control();
  EXPECT_FALSE(control != nullptr && control->adaptive());
  if (control != nullptr) {
    out.routing_epochs = control->routing_epochs();
    out.client_moves = control->client_moves();
    out.shards_parked = control->shards_parked();
    out.parked_core_cycles = control->parked_core_cycles();
    out.fleet_timeline = control->fleet_timeline();
  }
  EXPECT_FALSE(sys.fabric->epoch_tracking());
  if (const SpanDirectory* d = sys.allocator->directory()) {
    for (int s = 0; s < shards; ++s) {
      out.free_spans.push_back(d->free_spans(s));
    }
  }
  return out;
}

class FleetKnobSweepTest
    : public ::testing::TestWithParam<std::tuple<int, HeapKind>> {};

TEST_P(FleetKnobSweepTest, DisabledControllerMakesFleetKnobsInert) {
  const int shards = std::get<0>(GetParam());
  const HeapKind kind = std::get<1>(GetParam());
  const FleetOffRunState plain = RunFleetOffChurn(shards, kind, false);
  const FleetOffRunState armed = RunFleetOffChurn(shards, kind, true);

  EXPECT_EQ(plain.r.wall_cycles, armed.r.wall_cycles);
  ASSERT_EQ(plain.r.per_core.size(), armed.r.per_core.size());
  for (std::size_t c = 0; c < plain.r.per_core.size(); ++c) {
    EXPECT_EQ(plain.r.per_core[c].cycles, armed.r.per_core[c].cycles) << "core " << c;
    EXPECT_EQ(plain.r.per_core[c].instructions, armed.r.per_core[c].instructions)
        << "core " << c;
    EXPECT_EQ(plain.r.per_core[c].loads, armed.r.per_core[c].loads) << "core " << c;
    EXPECT_EQ(plain.r.per_core[c].stores, armed.r.per_core[c].stores) << "core " << c;
    EXPECT_EQ(plain.r.per_core[c].llc_load_misses, armed.r.per_core[c].llc_load_misses)
        << "core " << c;
    EXPECT_EQ(plain.r.per_core[c].dtlb_load_misses, armed.r.per_core[c].dtlb_load_misses)
        << "core " << c;
    EXPECT_EQ(plain.r.per_core[c].atomic_rmws, armed.r.per_core[c].atomic_rmws)
        << "core " << c;
  }
  EXPECT_EQ(plain.r.alloc_stats.mallocs, armed.r.alloc_stats.mallocs);
  EXPECT_EQ(plain.r.alloc_stats.frees, armed.r.alloc_stats.frees);
  EXPECT_EQ(plain.r.alloc_stats.bytes_live, armed.r.alloc_stats.bytes_live);
  EXPECT_EQ(plain.r.alloc_stats.mapped_bytes, armed.r.alloc_stats.mapped_bytes);
  EXPECT_EQ(plain.free_spans, armed.free_spans);
  // And the controller really was off: no epochs, no moves, no timeline.
  for (const FleetOffRunState* st : {&plain, &armed}) {
    EXPECT_EQ(st->routing_epochs, 0u);
    EXPECT_EQ(st->client_moves, 0u);
    EXPECT_EQ(st->shards_parked, 0u);
    EXPECT_EQ(st->parked_core_cycles, 0u);
    EXPECT_TRUE(st->fleet_timeline.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByHeap, FleetKnobSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(HeapKind::kAggregated, HeapKind::kSegment)));

// ---- Per-tenant traits determinism ----
//
// The traits layer (DESIGN.md §15) promises two things. First, an inert
// tenant list -- empty, or one default tenant inheriting every knob -- is
// BIT-IDENTICAL to the pre-traits build: the pin below replays
// bench_table3_nextgen's pipeline row byte for byte and checks the same
// final-state hash that bench asserts against its recorded value. Second,
// a heterogeneous tenant mix with lane admission on is still a
// deterministic simulation: two identical runs agree on every clock, PMU
// stream and book entry, across shard counts.

// The exact pipeline run bench_table3_nextgen hashes (machine, workload,
// config, seed); reproduced here so a traits regression that shifts one
// cycle fails in ctest, not only in the bench.
std::uint64_t HashedTable3PipelineRun(bool with_default_tenant) {
  Machine machine(bench::Table3Machine());
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.hugepage_spans = false;
  cfg.prediction = true;
  cfg.stash_pipeline = true;
  cfg.stash_refill_mark = 2;
  cfg.stash_capacity = 14;
  if (with_default_tenant) {
    TenantSpec t;
    t.name = "default_tenant";  // every knob at kInherit, normal lane
    t.cores = {0};
    cfg.tenants = {t};
  }
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*server_core=*/1);
  XalancLike wl(bench::XalancTable3Config());
  RunOptions opt;
  opt.cores = {0};
  opt.seed = 7;
  opt.server_cores = {1};
  const RunResult r = RunWorkload(machine, *sys.allocator, wl, opt);
  return bench::SimStateHash(r);
}

// bench::kTable3PipelineHash is the pinned history. If this fails, something
// changed simulated history for tenant-less runs: either an unintended timing
// regression, or a deliberate model change -- in which case re-pin the
// constant in bench_common.h.
using bench::kTable3PipelineHash;

TEST(TenantTraitsDeterminism, DefaultTraitsReplayThePinnedPipelineHash) {
  EXPECT_EQ(HashedTable3PipelineRun(false), kTable3PipelineHash)
      << "the tenant-less pipeline run no longer matches the pinned history";
  EXPECT_EQ(HashedTable3PipelineRun(true), kTable3PipelineHash)
      << "an all-default tenant list must be bit-identical to no tenants";
}

// The bench JSON carries state hashes as HashHex strings next to the
// replays-the-pinned-hash booleans CI asserts; the string must name the
// same 64-bit value.
TEST(PinnedHash, HashHexPrintsSixteenLowercaseDigits) {
  EXPECT_EQ(bench::HashHex(0), "0000000000000000");
  EXPECT_EQ(bench::HashHex(0xabcull), "0000000000000abc");
  EXPECT_EQ(bench::HashHex(~0ull), "ffffffffffffffff");
  const std::string pinned = bench::HashHex(kTable3PipelineHash);
  ASSERT_EQ(pinned.size(), 16u);
  EXPECT_EQ(std::stoull(pinned, nullptr, 16), kTable3PipelineHash);
}

// ---- Hugepage knob determinism (DESIGN.md §16) ----
//
// hugepage_packing and hugepage_metadata default off, and off must mean OFF:
// the pipeline run with both knobs explicitly false replays the same pinned
// hash as the knob-less build. With the full hugepage stack on, the run is
// still a deterministic simulation and the program-visible books are
// untouched -- the knobs may only move translations and syscalls.
std::uint64_t HashedTable3HugepageRun(AllocatorStats* stats_out = nullptr) {
  Machine machine(bench::Table3Machine());
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.hugepage_spans = true;
  cfg.hugepage_packing = true;
  cfg.hugepage_metadata = true;
  cfg.prediction = true;
  cfg.stash_pipeline = true;
  cfg.stash_refill_mark = 2;
  cfg.stash_capacity = 14;
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*server_core=*/1);
  XalancLike wl(bench::XalancTable3Config());
  RunOptions opt;
  opt.cores = {0};
  opt.seed = 7;
  opt.server_cores = {1};
  const RunResult r = RunWorkload(machine, *sys.allocator, wl, opt);
  if (stats_out != nullptr) {
    *stats_out = r.alloc_stats;
  }
  return bench::SimStateHash(r);
}

TEST(HugepageDeterminism, ExplicitOffKnobsReplayThePinnedPipelineHash) {
  auto run = [] {
    Machine machine(bench::Table3Machine());
    NgxConfig cfg = NgxConfig::PaperPrototype();
    cfg.hugepage_spans = false;
    cfg.hugepage_packing = false;   // explicit, not just defaulted
    cfg.hugepage_metadata = false;  // explicit, not just defaulted
    cfg.prediction = true;
    cfg.stash_pipeline = true;
    cfg.stash_refill_mark = 2;
    cfg.stash_capacity = 14;
    NgxSystem sys = MakeNgxSystem(machine, cfg, /*server_core=*/1);
    XalancLike wl(bench::XalancTable3Config());
    RunOptions opt;
    opt.cores = {0};
    opt.seed = 7;
    opt.server_cores = {1};
    return bench::SimStateHash(RunWorkload(machine, *sys.allocator, wl, opt));
  };
  EXPECT_EQ(run(), kTable3PipelineHash)
      << "hugepage_packing/hugepage_metadata = false must be bit-identical to "
         "the pre-§16 build";
}

TEST(HugepageDeterminism, PackedMetadataRunReplaysBitIdentically) {
  AllocatorStats a_stats;
  AllocatorStats b_stats;
  const std::uint64_t a = HashedTable3HugepageRun(&a_stats);
  const std::uint64_t b = HashedTable3HugepageRun(&b_stats);
  EXPECT_EQ(a, b) << "spans+packing+metadata must replay bit-identically";
  EXPECT_NE(a, kTable3PipelineHash)
      << "the hugepage stack must actually change simulated history";
  // The knobs only move translations and syscalls, never program-visible
  // allocation behaviour: the logical books match the knob-less pipeline.
  EXPECT_EQ(a_stats.mallocs, b_stats.mallocs);
  const AllocatorStats base = [] {
    Machine m(bench::Table3Machine());
    NgxConfig cfg = NgxConfig::PaperPrototype();
    cfg.hugepage_spans = false;
    cfg.prediction = true;
    cfg.stash_pipeline = true;
    cfg.stash_refill_mark = 2;
    cfg.stash_capacity = 14;
    NgxSystem sys = MakeNgxSystem(m, cfg, /*server_core=*/1);
    XalancLike wl(bench::XalancTable3Config());
    RunOptions opt;
    opt.cores = {0};
    opt.seed = 7;
    opt.server_cores = {1};
    return RunWorkload(m, *sys.allocator, wl, opt).alloc_stats;
  }();
  EXPECT_EQ(a_stats.mallocs, base.mallocs);
  EXPECT_EQ(a_stats.frees, base.frees);
  EXPECT_EQ(a_stats.bytes_requested, base.bytes_requested);
  EXPECT_EQ(a_stats.oom_failures, base.oom_failures);
}

// Heterogeneous traits + lane admission across {1, 2, 4} shards: the QoS
// machinery (lane-priority DrainAll sweeps, quantum-bounded bulk windows,
// the shadow no-bulk schedule) must replay exactly, and the books must
// balance under every mix.
class TenantShardSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TenantShardSweepTest, HeterogeneousTraitsWithLanesAreDeterministic) {
  const int shards = GetParam();
  auto run = [&] {
    const int clients = 4;
    Machine machine(MachineConfig::Default(clients + shards));
    NgxConfig cfg;
    cfg.num_shards = shards;
    cfg.hugepage_spans = false;
    cfg.heap_window = static_cast<std::uint64_t>(shards) * 8 * 1024 * 1024;
    cfg.prediction = true;
    cfg.stash_pipeline = true;  // kicked refills exercise the shadow clock
    cfg.lane_quantum = 8;
    TenantSpec fe;
    fe.name = "frontend";
    fe.traits = MakeTenantTraits("low_latency");
    fe.cores = {0};
    TenantSpec an;
    an.name = "analytics";
    an.traits = MakeTenantTraits("throughput");
    an.cores = {1};
    TenantSpec ca;
    ca.name = "cache";
    ca.traits = MakeTenantTraits("ephemeral");
    ca.cores = {2};
    cfg.tenants = {fe, an, ca};  // core 3 stays on the implicit default
    std::vector<int> servers;
    for (int s = 0; s < shards; ++s) {
      servers.push_back(clients + s);
    }
    NgxSystem sys = MakeNgxSystem(machine, cfg, servers);
    ChurnConfig wl;
    wl.live_blocks = 80;
    wl.ops = 800;
    wl.min_size = 32;
    wl.max_size = 2048;
    Churn workload(wl);
    RunOptions opt;
    opt.cores = {0, 1, 2, 3};
    opt.server_cores = servers;
    opt.seed = 42;
    const RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
    sys.fabric->DrainAll();
    const AllocatorStats s = sys.allocator->stats();
    EXPECT_EQ(s.mallocs, s.frees) << shards << " shards";
    EXPECT_EQ(s.bytes_live, 0u);
    return bench::SimStateHash(r);
  };
  EXPECT_EQ(run(), run()) << "traits-on run must replay bit-identically at "
                          << shards << " shards";
}

INSTANTIATE_TEST_SUITE_P(Shards, TenantShardSweepTest, ::testing::Values(1, 2, 4));

class ThreadSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweepTest, XmallocScalesOnTcmalloc) {
  const int n = GetParam();
  Machine machine(MachineConfig::Default(n));
  auto alloc = CreateAllocator("tcmalloc", machine);
  XmallocConfig cfg;
  cfg.ops_per_thread = 600;
  XmallocLike workload(cfg);
  RunOptions opt;
  opt.cores = FirstCores(n);
  const RunResult r = RunWorkload(machine, *alloc, workload, opt);
  const AllocatorStats s = alloc->stats();
  EXPECT_EQ(s.mallocs, static_cast<std::uint64_t>(n) * 600u);
  EXPECT_EQ(s.mallocs, s.frees);
  if (n > 1) {
    EXPECT_GT(r.app.remote_hitm, 0u) << "cross-thread frees must bounce lines";
  } else {
    EXPECT_EQ(r.app.remote_hitm, 0u);
  }
}

TEST_P(ThreadSweepTest, NextGenServesManyClients) {
  const int n = GetParam();
  Machine machine(MachineConfig::Default(n + 1));
  NgxSystem sys = MakeNgxSystem(machine, NgxConfig::PaperPrototype(), n);
  XmallocConfig cfg;
  cfg.ops_per_thread = 400;
  XmallocLike workload(cfg);
  RunOptions opt;
  opt.cores = FirstCores(n);
  opt.server_cores = {n};
  RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees);
  EXPECT_EQ(sys.fabric->TotalStats().sync_requests, s.mallocs + static_cast<std::uint64_t>(n))
      << "one round trip per malloc plus one flush per client";
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweepTest, ::testing::Values(1, 2, 3, 4, 7));

}  // namespace
}  // namespace ngx
