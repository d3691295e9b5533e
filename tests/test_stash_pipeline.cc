// Stash pipeline invariant tests (DESIGN.md §9):
//
//  * a randomized malloc/free interleaving matrix -- {1, 2, 4} shards x
//    pipeline {on, off} x seeds, two client cores -- audited by the shadow
//    heap (no double-hand-out, no overlap, live data intact) and by the
//    heap-level balance identity: after Flush has returned every stashed
//    block (both halves and any unconsumed in-flight refill) and the rings
//    drain, server-heap mallocs == frees;
//  * counter invariants tying the protocol together: every flip consumes at
//    most one refill, refill batches never exceed the single-line half, and
//    a starvation stall implies a flip;
//  * deterministic flush tests: a free burst deeper than the active half
//    recycles at most one half (min(stash_capacity, kPipeHalfCap) entries)
//    and sends the rest to the ring, and Flush still returns every stashed
//    block; a capacity past the two halves replays the halves-only run bit
//    for bit;
//  * the pipeline keeps serving correct class sizes after a Flush cleared
//    the halves (the sync fallback reseeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/nextgen_malloc.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

struct PipeCase {
  std::uint64_t seed;
  int shards;
  bool pipeline;
};

NgxConfig PipelineConfig(int shards, bool pipeline) {
  NgxConfig cfg;
  cfg.prediction = true;
  cfg.stash_pipeline = pipeline;
  cfg.num_shards = shards;
  return cfg;
}

// Asserts the counter relationships any pipeline run must satisfy.
void AuditPipelineCounters(const NgxAllocator& a) {
  // A flip consumes a published refill (or, rarely, a client-owned inactive
  // half); a refill that was never consumed can at most linger once per
  // (core, class), and Flush retires it -- so flips never exceed refills
  // plus the local flips.
  EXPECT_LE(a.stash_flips(), a.stash_refills() + a.stash_local_flips());
  // The server clamps every fill to the single-line half.
  EXPECT_LE(a.refill_blocks(), a.stash_refills() * 7);
  // A stall happens only while waiting out a flip's publish.
  EXPECT_LE(a.stash_starvation_stalls(), a.stash_flips());
}

class StashPipelineMatrixTest : public ::testing::TestWithParam<PipeCase> {};

TEST_P(StashPipelineMatrixTest, RandomInterleavingsKeepTheHeapBalanced) {
  const PipeCase& c = GetParam();
  auto machine = MakeMachine(2 + c.shards);
  NgxSystem sys = MakeNgxSystem(*machine, PipelineConfig(c.shards, c.pipeline),
                                /*first_server_core=*/2);
  ASSERT_EQ(sys.allocator->stash_pipelined(), c.pipeline);
  // Two client cores interleaved in rounds: blocks allocated on one core are
  // frequently freed from the other (the exerciser's live set is shared), so
  // recycled frees land in the freeing core's stash and pop back out there.
  ShadowHeapExerciser ex(*machine, *sys.allocator, c.seed);
  for (int round = 0; round < 3; ++round) {
    for (int core = 0; core < 2; ++core) {
      ex.Run(core, 500, 80, 1, 2048);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  ex.FreeAll(0);
  // Flush is per calling core: each client returns its own halves.
  for (int core = 0; core < 2; ++core) {
    Env env(*machine, core);
    sys.allocator->Flush(env);
  }
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees)
      << "a stashed block was lost (a half, or an in-flight refill)";
  EXPECT_EQ(s.oom_failures, 0u);
  if (c.pipeline) {
    EXPECT_GT(sys.allocator->stash_hits(), 0u);
    AuditPipelineCounters(*sys.allocator);
  } else {
    EXPECT_EQ(sys.allocator->stash_refills(), 0u);
    EXPECT_EQ(sys.allocator->stash_flips(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Interleavings, StashPipelineMatrixTest,
    ::testing::Values(PipeCase{1, 1, true}, PipeCase{1, 1, false},
                      PipeCase{2, 2, true}, PipeCase{2, 2, false},
                      PipeCase{3, 4, true}, PipeCase{3, 4, false},
                      PipeCase{11, 1, true}, PipeCase{12, 2, true},
                      PipeCase{13, 4, true}),
    [](const ::testing::TestParamInfo<PipeCase>& param_info) {
      const PipeCase& c = param_info.param;
      return "seed" + std::to_string(c.seed) + "_shards" + std::to_string(c.shards) +
             (c.pipeline ? "_pipe" : "_sync");
    });

// Mallocs 48 blocks of one class on a one-shard pipelined stash of
// `capacity`, then frees them all; returns how many frees the active half
// recycled and how many rode the ring. Afterwards malloc/free pairs must pop
// the recycled blocks with no sync trip, and Flush must return every block
// still stashed, or the heap leaks.
struct FreeBurst {
  std::uint64_t recycled = 0;
  std::uint64_t ring = 0;
};

FreeBurst RunFreeBurst(std::uint32_t capacity) {
  auto machine = MakeMachine(2);
  NgxConfig cfg = PipelineConfig(1, true);
  cfg.stash_capacity = capacity;
  NgxSystem sys = MakeNgxSystem(*machine, cfg, 1);
  Env app(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 48; ++i) {
    const Addr a = sys.allocator->Malloc(app, 128);
    EXPECT_NE(a, kNullAddr);
    blocks.push_back(a);
  }
  std::sort(blocks.begin(), blocks.end());
  EXPECT_EQ(std::adjacent_find(blocks.begin(), blocks.end()), blocks.end())
      << "a block was handed out twice";
  const std::uint64_t recycled_before = sys.allocator->stash_recycled_frees();
  const std::uint64_t enqueued_before = sys.fabric->TotalStats().async_enqueued;
  for (const Addr a : blocks) {
    sys.allocator->Free(app, a);
  }
  FreeBurst out;
  out.recycled = sys.allocator->stash_recycled_frees() - recycled_before;
  out.ring = sys.fabric->TotalStats().async_enqueued - enqueued_before;
  const std::uint64_t sync_before = sys.allocator->sync_mallocs();
  for (int i = 0; i < 20; ++i) {
    const Addr a = sys.allocator->Malloc(app, 128);
    EXPECT_NE(a, kNullAddr);
    sys.allocator->Free(app, a);
  }
  EXPECT_EQ(sys.allocator->sync_mallocs(), sync_before)
      << "the recycled blocks should have served the whole run";
  sys.allocator->Flush(app);
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees) << "Flush lost a stashed block";
  AuditPipelineCounters(*sys.allocator);
  return out;
}

// The active half takes recycled frees until it is full; every later free
// of the burst rides the ring to its shard.
TEST(StashPipelineFlush, FreeBurstRidesTheRingAndFlushReturnsAll) {
  const FreeBurst burst = RunFreeBurst(32);
  EXPECT_GT(burst.recycled, 0u);
  EXPECT_LE(burst.recycled, kPipeHalfCap) << "only the active half takes recycled frees";
  EXPECT_EQ(burst.recycled + burst.ring, 48u) << "every other free rides the ring";
}

// A capacity below one line caps each half at that capacity.
TEST(StashPipelineFlush, ShallowCapacityCapsEachHalf) {
  const FreeBurst burst = RunFreeBurst(4);
  EXPECT_GT(burst.recycled, 0u);
  EXPECT_LE(burst.recycled, 4u);
  EXPECT_EQ(burst.recycled + burst.ring, 48u);
}

// The two halves are all a pipelined stash holds: a capacity past
// 2 * kPipeHalfCap replays the halves-only run bit for bit.
TEST(StashPipelineFlush, CapacityPastTheHalvesRunsAsTheHalves) {
  auto run = [](std::uint32_t capacity) {
    Machine machine(MachineConfig::Default(3));
    NgxConfig cfg = PipelineConfig(1, true);
    cfg.stash_capacity = capacity;
    NgxSystem sys = MakeNgxSystem(machine, cfg, 2);
    ChurnConfig wl;
    wl.live_blocks = 120;
    wl.ops = 1200;
    Churn workload(wl);
    RunOptions opt;
    opt.cores = {0, 1};
    opt.server_cores = {2};
    opt.seed = 9;
    const RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
    sys.fabric->DrainAll();
    EXPECT_GT(sys.allocator->stash_recycled_frees(), 0u);
    return bench::SimStateHash(r);
  };
  const std::uint64_t halves = run(2 * kPipeHalfCap);
  EXPECT_EQ(run(32), halves);
  EXPECT_EQ(run(1000), halves);
}

// After Flush empties the halves, the next malloc takes the sync fallback,
// reseeds the active half, and keeps returning correctly-classed blocks.
TEST(StashPipelineFlush, PipelineRecoversAfterFlush) {
  auto machine = MakeMachine(2);
  NgxSystem sys = MakeNgxSystem(*machine, PipelineConfig(1, true), 1);
  Env app(*machine, 0);
  for (int round = 0; round < 3; ++round) {
    std::vector<Addr> blocks;
    for (int i = 0; i < 30; ++i) {
      const Addr a = sys.allocator->Malloc(app, 100);
      ASSERT_NE(a, kNullAddr);
      EXPECT_GE(sys.allocator->UsableSize(app, a), 100u);
      blocks.push_back(a);
    }
    std::sort(blocks.begin(), blocks.end());
    ASSERT_EQ(std::adjacent_find(blocks.begin(), blocks.end()), blocks.end());
    for (const Addr a : blocks) {
      sys.allocator->Free(app, a);
    }
    sys.allocator->Flush(app);
    sys.fabric->DrainAll();
    const AllocatorStats s = sys.allocator->stats();
    EXPECT_EQ(s.mallocs, s.frees) << "round " << round;
  }
}

}  // namespace
}  // namespace ngx
