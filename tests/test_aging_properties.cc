// Long-horizon property tests: allocator behaviour under heap aging
// (fragmentation pressure, retention, repeated document cycles) and failure
// injection (address-space exhaustion).
#include <gtest/gtest.h>

#include "src/alloc/jemalloc/je_allocator.h"
#include "src/alloc/layout.h"
#include "src/alloc/ptmalloc/pt_allocator.h"
#include "src/alloc/registry.h"
#include "src/core/nextgen_malloc.h"
#include "src/workload/rng.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

class AgingTest : public ::testing::TestWithParam<std::string> {};

// Retention-style aging: a fraction of each "generation" survives several
// generations. Footprint must stabilize, not creep without bound.
TEST_P(AgingTest, FootprintStabilizesUnderRetention) {
  auto machine = MakeMachine(2);
  NgxSystem sys;
  std::unique_ptr<Allocator> owned;
  Allocator* alloc = nullptr;
  if (GetParam() == "nextgen") {
    sys = MakeNgxSystem(*machine, NgxConfig::PaperPrototype(), 1);
    alloc = sys.allocator.get();
  } else {
    owned = CreateAllocator(GetParam(), *machine);
    alloc = owned.get();
  }
  Env env(*machine, 0);
  Rng rng(31);

  std::vector<std::vector<Addr>> retained;
  std::uint64_t mapped_mid = 0;
  for (int gen = 0; gen < 30; ++gen) {
    std::vector<Addr> survivors;
    std::vector<Addr> dying;
    for (int i = 0; i < 600; ++i) {
      const Addr a = alloc->Malloc(env, rng.Range(16, 512));
      ASSERT_NE(a, kNullAddr);
      (rng.Chance(1, 5) ? survivors : dying).push_back(a);
    }
    for (const Addr a : dying) {
      alloc->Free(env, a);
    }
    retained.push_back(std::move(survivors));
    if (retained.size() > 4) {
      for (const Addr a : retained.front()) {
        alloc->Free(env, a);
      }
      retained.erase(retained.begin());
    }
    if (gen == 14) {
      alloc->Flush(env);
      mapped_mid = alloc->stats().mapped_bytes;
    }
  }
  alloc->Flush(env);
  if (sys.fabric) {
    sys.fabric->DrainAll();
  }
  const std::uint64_t mapped_end = alloc->stats().mapped_bytes;
  // Steady state: the second half of the run must not add more than 50%.
  EXPECT_LE(mapped_end, mapped_mid + mapped_mid / 2)
      << "footprint creep under retention aging";
  for (const auto& batch : retained) {
    for (const Addr a : batch) {
      alloc->Free(env, a);
    }
  }
}

// Size-mix shift: a heap aged on small objects must serve a large-object
// phase without catastrophic new mapping (coalescing / span reuse at work).
TEST_P(AgingTest, SizeMixShiftReusesMemory) {
  auto machine = MakeMachine(2);
  NgxSystem sys;
  std::unique_ptr<Allocator> owned;
  Allocator* alloc = nullptr;
  if (GetParam() == "nextgen") {
    sys = MakeNgxSystem(*machine, NgxConfig::PaperPrototype(), 1);
    alloc = sys.allocator.get();
  } else {
    owned = CreateAllocator(GetParam(), *machine);
    alloc = owned.get();
  }
  Env env(*machine, 0);
  Rng rng(77);
  // Phase 1: lots of small objects, then free all.
  std::vector<Addr> blocks;
  for (int i = 0; i < 4000; ++i) {
    blocks.push_back(alloc->Malloc(env, rng.Range(16, 128)));
  }
  for (const Addr a : blocks) {
    alloc->Free(env, a);
  }
  blocks.clear();
  alloc->Flush(env);
  // Phase 2: medium/large objects.
  for (int i = 0; i < 100; ++i) {
    const Addr a = alloc->Malloc(env, rng.Range(2000, 30000));
    ASSERT_NE(a, kNullAddr);
    blocks.push_back(a);
  }
  for (const Addr a : blocks) {
    alloc->Free(env, a);
  }
  alloc->Flush(env);
  if (sys.fabric) {
    sys.fabric->DrainAll();
  }
  const AllocatorStats s = alloc->stats();
  EXPECT_EQ(s.mallocs, s.frees);
  EXPECT_EQ(s.oom_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Allocators, AgingTest,
                         ::testing::Values("ptmalloc2", "jemalloc", "tcmalloc", "mimalloc",
                                           "nextgen"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           return param_info.param;
                         });

// Failure injection: a provider window too small to satisfy the demand must
// produce clean OOM (null + counter), not corruption.
TEST(FailureInjection, PtAllocatorCleanOom) {
  auto machine = MakeMachine(1);
  // Window below the initial wilderness demand is illegal; give it just a
  // little: 4 MiB total.
  PtConfig cfg;
  cfg.grow_bytes = 1 << 20;
  PtAllocator pt(*machine, kPtHeapBase, cfg);
  Env env(*machine, 0);
  // Exhaust by mmapping large blocks (window is kHeapWindow; use huge sizes
  // via direct mmap path in a loop bounded by the window).
  // Instead: a dedicated small provider is internal, so exercise OOM via a
  // ludicrous single request instead.
  const Addr a = pt.Malloc(env, kHeapWindow + 1);
  EXPECT_EQ(a, kNullAddr);
  EXPECT_EQ(pt.stats().oom_failures, 1u);
}

TEST(FailureInjection, JeDoubleFreeCaughtByBitmapInDebug) {
  auto machine = MakeMachine(1);
  JeAllocator je(*machine, kJeHeapBase);
  Env env(*machine, 0);
  const Addr a = je.Malloc(env, 64);
  je.Free(env, a);
  EXPECT_DEATH_IF_SUPPORTED(je.Free(env, a), "double free");
}

}  // namespace
}  // namespace ngx
