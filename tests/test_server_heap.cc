// Tests for the single-owner server heaps (both Figure-2 layouts).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/alloc/layout.h"
#include "src/core/nextgen_malloc.h"
#include "src/core/server_heap.h"
#include "tests/test_util.h"
#include "src/workload/rng.h"

namespace ngx {
namespace {

class ServerHeapTest : public ::testing::TestWithParam<HeapKind> {
 protected:
  void SetUp() override {
    machine_ = MakeMachine(1);
    ServerHeapConfig cfg;
    cfg.heap_kind = GetParam();
    heap_ = MakeServerHeap(*machine_, kNgxHeapBase, kNgxMetaBase, cfg);
  }
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<ServerHeap> heap_;
};

TEST_P(ServerHeapTest, BasicAllocFreeReuse) {
  Env env(*machine_, 0);
  const Addr a = heap_->Malloc(env, 100);
  ASSERT_NE(a, kNullAddr);
  EXPECT_EQ(a % 16, 0u);
  EXPECT_GE(heap_->UsableSize(env, a), 100u);
  heap_->Free(env, a);
  EXPECT_EQ(heap_->Malloc(env, 100), a) << "LIFO reuse";
  heap_->Free(env, a);
}

TEST_P(ServerHeapTest, RandomChurnInvariants) {
  Env env(*machine_, 0);
  Rng rng(5);
  std::map<Addr, std::uint64_t> live;
  for (int i = 0; i < 5000; ++i) {
    if (live.size() < 100 || rng.Chance(1, 2)) {
      const std::uint64_t size = rng.Range(1, 40000);  // crosses the large threshold
      const Addr a = heap_->Malloc(env, size);
      ASSERT_NE(a, kNullAddr);
      ASSERT_GE(heap_->UsableSize(env, a), size);
      // Disjointness.
      auto next = live.lower_bound(a);
      if (next != live.end()) {
        ASSERT_LE(a + size, next->first);
      }
      if (next != live.begin()) {
        auto prev = std::prev(next);
        ASSERT_LE(prev->first + prev->second, a);
      }
      live.emplace(a, size);
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      heap_->Free(env, it->first);
      live.erase(it);
    }
  }
  const AllocatorStats s = heap_->stats();
  EXPECT_EQ(s.mallocs - s.frees, live.size());
}

TEST_P(ServerHeapTest, LargeBlocksMapAndUnmap) {
  Env env(*machine_, 0);
  const std::uint64_t mapped0 = heap_->stats().mapped_bytes;
  const Addr a = heap_->Malloc(env, 2 * 1024 * 1024);
  ASSERT_NE(a, kNullAddr);
  env.Store<std::uint64_t>(a + 2 * 1024 * 1024 - 8, 1);
  EXPECT_GE(heap_->UsableSize(env, a), 2u * 1024 * 1024);
  heap_->Free(env, a);
  EXPECT_LE(heap_->stats().mapped_bytes, mapped0 + (1u << 20));
}

TEST_P(ServerHeapTest, NoLockMeansNoAtomics) {
  Env env(*machine_, 0);
  for (int i = 0; i < 100; ++i) {
    heap_->Free(env, heap_->Malloc(env, 64));
  }
  EXPECT_EQ(machine_->core(0).pmu().atomic_rmws, 0u);
}

TEST_P(ServerHeapTest, FreedBlocksAreAllRecycledBeforeAnyFreshCarve) {
  Env env(*machine_, 0);
  // More frees than a segment slab header holds inline, so the segment
  // heap's freelist spills into its overflow row; a dropped free would be a
  // permanent leak.
  std::vector<Addr> blocks;
  for (int i = 0; i < 300; ++i) {
    blocks.push_back(heap_->Malloc(env, 64));
    ASSERT_NE(blocks.back(), kNullAddr);
  }
  for (const Addr a : blocks) {
    heap_->Free(env, a);
  }
  EXPECT_EQ(heap_->stats().bytes_live, 0u);
  const std::uint64_t mapped_after_free = heap_->stats().mapped_bytes;
  std::set<Addr> reused;
  for (int i = 0; i < 300; ++i) {
    reused.insert(heap_->Malloc(env, 64));
  }
  EXPECT_EQ(reused, std::set<Addr>(blocks.begin(), blocks.end()))
      << "every freed block must be recycled before any fresh carve";
  EXPECT_EQ(heap_->stats().mapped_bytes, mapped_after_free);
  for (const Addr a : blocks) {
    heap_->Free(env, a);
  }
  EXPECT_EQ(heap_->stats().bytes_live, 0u);
}

// The flight recorder's snapshot contract (DESIGN.md §13): Inspect() reports
// the same books as stats() and touches no clock, cache or PMU counter.
TEST_P(ServerHeapTest, InspectAgreesWithStatsAndPerturbsNothing) {
  Env env(*machine_, 0);
  std::vector<Addr> small;
  for (int i = 0; i < 10; ++i) {
    small.push_back(heap_->Malloc(env, 64));
  }
  const Addr big = heap_->Malloc(env, 100 * 1024);
  ASSERT_NE(big, kNullAddr);
  for (int i = 0; i < 4; ++i) {
    heap_->Free(env, small[static_cast<std::size_t>(i)]);
  }
  const std::uint64_t now = env.now();
  const PmuCounters pmu = machine_->core(0).pmu();
  const HeapOccupancy in = heap_->Inspect();
  EXPECT_EQ(env.now(), now);
  EXPECT_EQ(machine_->core(0).pmu().loads, pmu.loads);
  EXPECT_EQ(machine_->core(0).pmu().stores, pmu.stores);
  EXPECT_EQ(machine_->core(0).pmu().l1d_load_misses, pmu.l1d_load_misses);
  const AllocatorStats s = heap_->stats();
  EXPECT_EQ(in.bytes_live, s.bytes_live);
  EXPECT_EQ(in.data_mapped_bytes + in.meta_mapped_bytes, s.mapped_bytes);
  EXPECT_EQ(in.free_blocks, 4u);
  EXPECT_EQ(in.large_blocks, 1u);
  EXPECT_GE(in.large_bytes, 100u * 1024);
  heap_->Free(env, big);
  EXPECT_EQ(heap_->Inspect().large_blocks, 0u);
  EXPECT_EQ(heap_->Inspect().large_bytes, 0u);
}

TEST_P(ServerHeapTest, ExhaustedWindowFailsCleanlyAndRecoversAfterAFree) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg;
  cfg.heap_kind = GetParam();
  cfg.hugepage_spans = false;
  cfg.window_bytes = 4 * cfg.span_bytes;  // 512 KiB data window
  cfg.meta_window_bytes = 1ull << 30;
  auto heap = MakeServerHeap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  Env env(*machine, 0);
  // A large request past the whole window fails without mapping anything.
  const std::uint64_t mapped0 = heap->stats().mapped_bytes;
  EXPECT_EQ(heap->Malloc(env, 2 * cfg.window_bytes), kNullAddr);
  EXPECT_EQ(heap->stats().oom_failures, 1u);
  EXPECT_EQ(heap->stats().mapped_bytes, mapped0);
  EXPECT_EQ(heap->stats().bytes_live, 0u);
  // Small blocks fill the window until the heap runs dry, all inside it.
  std::vector<Addr> blocks;
  for (Addr a = heap->Malloc(env, 16 * 1024); a != kNullAddr;
       a = heap->Malloc(env, 16 * 1024)) {
    ASSERT_GE(a, kNgxHeapBase);
    ASSERT_LT(a, kNgxHeapBase + cfg.window_bytes);
    blocks.push_back(a);
    ASSERT_LE(blocks.size(), cfg.window_bytes / (16 * 1024));
  }
  EXPECT_GE(blocks.size(), 16u) << "the window holds at least half its bytes in 16 KiB blocks";
  EXPECT_EQ(heap->stats().oom_failures, 2u);
  // A free makes room again: the next malloc reuses the freed block.
  heap->Free(env, blocks.back());
  EXPECT_EQ(heap->Malloc(env, 16 * 1024), blocks.back());
  EXPECT_EQ(heap->stats().oom_failures, 2u);
  for (const Addr a : blocks) {
    heap->Free(env, a);
  }
  EXPECT_EQ(heap->stats().bytes_live, 0u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, ServerHeapTest,
                         ::testing::Values(HeapKind::kSegment, HeapKind::kAggregated),
                         [](const ::testing::TestParamInfo<HeapKind>& p) {
                           return HeapKindName(p.param);
                         });

TEST(ServerHeap, HeapKindFactorySelectsLayouts) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg;
  auto seg = MakeServerHeap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  EXPECT_EQ(seg->name(), "ngx-segment") << "the segment heap is the default layout";
  auto machine2 = MakeMachine(1);
  cfg.heap_kind = HeapKind::kAggregated;
  auto agg = MakeServerHeap(*machine2, kNgxHeapBase, kNgxMetaBase, cfg);
  EXPECT_EQ(agg->name(), "ngx-aggregated");
  // NgxConfig::heap_kind reaches every shard: a default NgxConfig builds
  // segment heaps, kAggregated builds aggregated ones.
  for (const bool aggregated : {false, true}) {
    auto fabric_machine = MakeMachine(4);
    NgxConfig ngx;
    ngx.num_shards = 2;
    if (aggregated) {
      ngx.heap_kind = HeapKind::kAggregated;
    }
    NgxSystem sys = MakeNgxSystem(*fabric_machine, ngx, /*first_server_core=*/2);
    for (int s = 0; s < sys.allocator->num_shards(); ++s) {
      EXPECT_EQ(sys.allocator->heap(s).name(), aggregated ? "ngx-aggregated" : "ngx-segment")
          << "shard " << s;
    }
  }
}

TEST(ServerHeap, LockedVariantIssuesAtomics) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg;
  cfg.use_lock = true;
  auto heap = MakeServerHeap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  Env env(*machine, 0);
  heap->Free(env, heap->Malloc(env, 64));
  EXPECT_EQ(machine->core(0).pmu().atomic_rmws, 2u) << "one lock acquire per op";
}

TEST(ServerHeap, SegregatedMetadataLivesInMetaWindow) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg;
  auto heap = MakeServerHeap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  Env env(*machine, 0);
  const Addr a = heap->Malloc(env, 64);
  heap->Free(env, a);
  // The slab's 16-bit class tag and header line must live in the metadata
  // window, far from the block itself.
  const Region* r = machine->address_map().Find(kNgxMetaBase);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->name, "ngx-seg-meta");
  EXPECT_GE(a, kNgxHeapBase);
  EXPECT_LT(a, kNgxHeapBase + kHeapWindow);
}

}  // namespace
}  // namespace ngx
