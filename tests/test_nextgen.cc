// NextGen-Malloc configuration-matrix tests: every knob combination must
// preserve allocator correctness, and the structural claims behind each knob
// must hold (no atomics on the server heap, async frees deferred, stash hits
// under prediction, metadata isolation from the app core).
#include <gtest/gtest.h>

#include <vector>

#include "src/core/analytical_model.h"
#include "src/core/nextgen_malloc.h"
#include "src/offload/prediction.h"
#include "src/telemetry/telemetry.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

struct NgxCase {
  bool offload;
  bool async_free;
  bool segregated;
  bool remove_atomics;
  bool prediction;
};

class NgxMatrixTest : public ::testing::TestWithParam<NgxCase> {};

TEST_P(NgxMatrixTest, ShadowHeapInvariantsHold) {
  const NgxCase& c = GetParam();
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.offload = c.offload;
  cfg.async_free = c.async_free;
  cfg.heap_kind = c.segregated ? HeapKind::kSegment : HeapKind::kAggregated;
  cfg.remove_atomics = c.remove_atomics;
  cfg.prediction = c.prediction;
  NgxSystem sys = MakeNgxSystem(*machine, cfg, /*server_core=*/2);
  ShadowHeapExerciser ex(*machine, *sys.allocator, 4242);
  ex.Run(0, 1500, 200);
  ex.FreeAll(0);
  Env env(*machine, 0);
  sys.allocator->Flush(env);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, NgxMatrixTest,
    ::testing::Values(NgxCase{true, true, true, true, false},
                      NgxCase{true, false, true, true, false},
                      NgxCase{true, true, false, true, false},
                      NgxCase{true, true, true, false, false},
                      NgxCase{true, true, true, true, true},
                      NgxCase{true, false, false, false, true},
                      NgxCase{false, false, true, false, false},
                      NgxCase{false, false, false, false, false}),
    [](const ::testing::TestParamInfo<NgxCase>& param_info) {
      const NgxCase& c = param_info.param;
      std::string n;
      n += c.offload ? "off" : "inl";
      n += c.async_free ? "_async" : "_sync";
      n += c.segregated ? "_seg" : "_agg";
      n += c.remove_atomics ? "_noatomics" : "_atomics";
      n += c.prediction ? "_pred" : "_nopred";
      return n;
    });

// Combinations the allocator would otherwise silently ignore die at
// construction.
TEST(NgxConfigDeath, AdaptivePolicyWithoutTheEpochControllerAborts) {
  auto machine = MakeMachine(4);
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.routing = RoutingKind::kAdaptive;  // adaptive_routing left off
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg), "adaptive_routing");
}

// The reverse: the epoch controller's Observe re-packs homes, so running it
// under static routing would make the static spread adaptive.
TEST(NgxConfigDeath, EpochControllerWithoutTheAdaptiveRouterAborts) {
  auto machine = MakeMachine(4);
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.adaptive_routing = true;  // routing left at static_by_client
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg),
                            "adaptive_routing needs routing = adaptive");
}

TEST(NgxConfigDeath, StashPipelineWithoutPredictionAborts) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.stash_pipeline = true;  // prediction left off: no stash to pipeline
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg, 2),
                            "stash_pipeline needs prediction");
}

TEST(NgxConfigDeath, StashPipelineWithZeroRefillMarkAborts) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.prediction = true;
  cfg.stash_pipeline = true;
  cfg.stash_refill_mark = 0;  // stash_pipeline = false is the one way to turn it off
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg, 2),
                            "stash_pipeline needs stash_refill_mark > 0");
}

TEST(NgxConfigDeath, PredictionWithoutOffloadAborts) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.offload = false;
  cfg.prediction = true;  // the inline path never reads the stash
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg), "prediction needs offload");
}

// A pipelined half holds min(stash_capacity, kPipeHalfCap) entries, so a
// zero capacity would leave both halves with no room at all.
TEST(NgxConfigDeath, PipelinedStashOfZeroCapacityAborts) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.prediction = true;
  cfg.stash_pipeline = true;
  cfg.stash_capacity = 0;
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg, 2),
                            "pipelined stash needs a nonzero capacity");
}

// free_batch is every client's frees per doorbell: 0 would never publish,
// and a batch past the ring capacity could not fit in one ring.
TEST(NgxConfigDeath, ZeroFreeBatchAborts) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.free_batch = 0;
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg, 2),
                            "free_batch must fit in one async ring");
}

TEST(NgxConfigDeath, FreeBatchBeyondOneRingAborts) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.free_batch = kNgxRingCapacity + 1;
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg, 2),
                            "free_batch must fit in one async ring");
}

TEST(NgxConfigDeath, HugepagePackingWithoutHugepageSpansAborts) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.hugepage_spans = false;
  cfg.hugepage_packing = true;  // nothing to pack
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg, 2),
                            "hugepage_packing packs hugepage spans");
}

TEST(NgxConfigDeath, WatermarksWithoutDonationAbort) {
  auto machine = MakeMachine(4);
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.span_low_mark = 4;  // span_donation left off: no protocol to refill with
  cfg.span_high_mark = 8;
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg), "requires span_donation");
}

TEST(NgxConfigDeath, HighMarkNotAboveLowMarkAborts) {
  auto machine = MakeMachine(4);
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.span_donation = true;
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 8;
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg),
                            "span_high_mark must exceed span_low_mark");
}

TEST(NgxConfigDeath, HeapWindowThatDoesNotSplitEvenlyAborts) {
  auto machine = MakeMachine(5);
  NgxConfig cfg;
  cfg.num_shards = 3;
  cfg.heap_window = 64ull << 20;  // 64 MiB has no three equal slices
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg),
                            "heap window must split evenly across shards");
}

TEST(NgxConfigDeath, ServerCoreListOfTheWrongSizeAborts) {
  auto machine = MakeMachine(4);
  NgxConfig cfg;
  cfg.num_shards = 2;
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg, std::vector<int>{3}),
                            "server core list size must equal config.num_shards");
}

TEST(NextGen, ServerHeapRunsOnServerCoreOnly) {
  auto machine = MakeMachine(3);
  NgxSystem sys = MakeNgxSystem(*machine, NgxConfig::PaperPrototype(), 2);
  Env app(*machine, 0);
  for (int i = 0; i < 200; ++i) {
    const Addr a = sys.allocator->Malloc(app, 64);
    ASSERT_NE(a, kNullAddr);
    sys.allocator->Free(app, a);
  }
  sys.allocator->Flush(app);
  // The server core must have done real work; the app core must have done
  // none of the heap's metadata accesses (its only loads are mailbox lines).
  EXPECT_GT(machine->core(2).pmu().loads, 200u);
  // Metadata region accesses would show as many more loads than the mailbox
  // protocol's ~2 per op.
  EXPECT_LT(machine->core(0).pmu().loads, 12u * 200u);
}

TEST(NextGen, RemoveAtomicsEliminatesServerRmws) {
  auto machine = MakeMachine(2);
  NgxConfig cfg;  // remove_atomics = true
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 1);
  Env app(*machine, 0);
  for (int i = 0; i < 50; ++i) {
    sys.allocator->Free(app, sys.allocator->Malloc(app, 64));
  }
  sys.allocator->Flush(app);
  // Handshake atomics exist (client+server flags), but the heap itself must
  // issue none: count RMWs on the server beyond the per-request flag pair.
  const std::uint64_t server_rmws = machine->core(1).pmu().atomic_rmws;
  EXPECT_EQ(server_rmws, 0u) << "server polls with plain loads and the heap has no lock";
}

TEST(NextGen, KeepAtomicsAddsTwoRmwsPerOp) {
  auto machine = MakeMachine(2);
  NgxConfig cfg;
  cfg.remove_atomics = false;
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 1);
  Env app(*machine, 0);
  for (int i = 0; i < 50; ++i) {
    sys.allocator->Free(app, sys.allocator->Malloc(app, 64));
  }
  sys.allocator->Flush(app);
  EXPECT_GE(machine->core(1).pmu().atomic_rmws, 100u);  // lock acquire per op
}

TEST(NextGen, AsyncFreeIsDeferred) {
  auto machine = MakeMachine(2);
  NgxSystem sys = MakeNgxSystem(*machine, NgxConfig::PaperPrototype(), 1);
  Env app(*machine, 0);
  const Addr a = sys.allocator->Malloc(app, 64);
  sys.allocator->Free(app, a);
  EXPECT_EQ(sys.allocator->stats().frees, 0u) << "free rides the ring";
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->stats().frees, 1u);
}

TEST(NextGen, PredictionShortCircuitsRoundTrips) {
  auto machine = MakeMachine(2);
  NgxConfig cfg;
  cfg.prediction = true;
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 1);
  Env app(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 200; ++i) {
    blocks.push_back(sys.allocator->Malloc(app, 128));  // same class: a run
  }
  EXPECT_GT(sys.allocator->stash_hits(), 100u);
  EXPECT_LT(sys.allocator->sync_mallocs(), 100u);
  // All blocks distinct and usable.
  std::sort(blocks.begin(), blocks.end());
  EXPECT_EQ(std::adjacent_find(blocks.begin(), blocks.end()), blocks.end());
  for (const Addr b : blocks) {
    sys.allocator->Free(app, b);
  }
  sys.allocator->Flush(app);
}

TEST(NextGen, StashReturnsCorrectClassSizes) {
  auto machine = MakeMachine(2);
  NgxConfig cfg;
  cfg.prediction = true;
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 1);
  Env app(*machine, 0);
  // Prime a run of 100-byte allocations, then request 97 bytes (same class).
  for (int i = 0; i < 20; ++i) {
    sys.allocator->Malloc(app, 100);
  }
  const Addr a = sys.allocator->Malloc(app, 97);
  EXPECT_GE(sys.allocator->UsableSize(app, a), 97u);
}

// The telemetry alloc-site map (live block -> obtaining core, the free
// locality classifier's lookup table) must track app-level liveness exactly:
// equal to the live set while recording, drained to empty once every block
// is freed -- including blocks that bounced through the pipelined stash's
// recycle path without ever reaching the server -- and never populated at
// all when telemetry is off.
TEST(NextGen, AllocSiteMapTracksLivenessAndDrainsToEmpty) {
  auto machine = MakeMachine(3);
  TelemetryConfig tc;
  tc.enabled = true;
  machine->EnableTelemetry(tc);
  NgxConfig cfg;
  cfg.prediction = true;
  cfg.stash_pipeline = true;
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 2);
  ShadowHeapExerciser ex(*machine, *sys.allocator, 99);
  for (int round = 0; round < 3; ++round) {
    for (int core = 0; core < 2; ++core) {
      ex.Run(core, 400, 120, 1, 2048);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      EXPECT_EQ(sys.allocator->live_alloc_notes(), ex.live_count())
          << "map diverged from the live set (round " << round << ")";
    }
  }
  ex.FreeAll(0);
  // Empty before Flush: stash-parked blocks are not app-live, so their
  // notes must already be gone.
  EXPECT_EQ(sys.allocator->live_alloc_notes(), 0u)
      << "a freed block's note lingered (unbounded growth over churn)";
  Env env(*machine, 0);
  sys.allocator->Flush(env);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->live_alloc_notes(), 0u);
}

TEST(NextGen, AllocSiteMapStaysEmptyWithoutTelemetry) {
  auto machine = MakeMachine(2);
  NgxConfig cfg;
  cfg.prediction = true;
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 1);
  Env app(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 200; ++i) {
    blocks.push_back(sys.allocator->Malloc(app, 128));
    EXPECT_EQ(sys.allocator->live_alloc_notes(), 0u);
  }
  for (const Addr a : blocks) {
    sys.allocator->Free(app, a);
  }
  EXPECT_EQ(sys.allocator->live_alloc_notes(), 0u);
}

TEST(AnalyticalModel, ReproducesPaperNumbers) {
  const BreakEvenResult r = ComputeBreakEven(BreakEvenInputs::PaperXalancbmk());
  // 279,795,405 calls x 4 atomics x 67 cycles ~ 7.5e10.
  EXPECT_NEAR(r.overhead_cycles, 7.5e10, 0.02e10);
  EXPECT_NEAR(r.required_miss_reduction_per_call, 1.25, 0.01);
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.available_mem_ops_per_call, 8.5, 0.1);
}

TEST(AnalyticalModel, InfeasibleWhenPenaltyTiny) {
  BreakEvenInputs in = BreakEvenInputs::PaperXalancbmk();
  in.miss_penalty_cycles = 10.0;  // misses are cheap: nothing to win
  const BreakEvenResult r = ComputeBreakEven(in);
  EXPECT_GT(r.required_miss_reduction_per_call, r.available_mem_ops_per_call);
  EXPECT_FALSE(r.feasible);
}

TEST(AnalyticalModel, MissPenaltyFromCounters) {
  PmuCounters slow;
  slow.cycles = 1000000;
  slow.llc_load_misses = 1000;
  PmuCounters fast;
  fast.cycles = 800000;
  fast.llc_load_misses = 0;
  EXPECT_DOUBLE_EQ(MissPenaltyFromCounters(slow, fast), 200.0);
  EXPECT_EQ(MissPenaltyFromCounters(fast, slow), 0.0);
}

TEST(Predictor, RampsUpOnRuns) {
  AllocationPredictor p(2, 8, 16);
  EXPECT_EQ(p.OnMallocMiss(0, 3), 0u);  // first sighting
  EXPECT_EQ(p.OnMallocMiss(0, 3), 0u);  // run of 1
  const std::uint32_t b1 = p.OnMallocMiss(0, 3);
  EXPECT_GE(b1, 4u);
  std::uint32_t last = b1;
  for (int i = 0; i < 6; ++i) {
    last = p.OnMallocMiss(0, 3);
  }
  EXPECT_EQ(last, 16u) << "saturates at max batch";
}

TEST(Predictor, ClientsAreIndependent) {
  AllocationPredictor p(2, 8, 16);
  for (int i = 0; i < 5; ++i) {
    p.OnMallocMiss(0, 3);
  }
  EXPECT_EQ(p.OnMallocMiss(1, 3), 0u) << "client 1 has no history";
}

}  // namespace
}  // namespace ngx
