// Tests for the single-owner server heaps (both Figure-2 layouts) and the
// UVM extension allocator.
#include <gtest/gtest.h>

#include <set>

#include "src/alloc/layout.h"
#include "src/core/gpu_malloc.h"
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

INSTANTIATE_TEST_SUITE_P(Layouts, ServerHeapTest,
                         ::testing::Values(HeapKind::kSegregated,
                                           HeapKind::kAggregated,
                                           HeapKind::kSegment),
                         [](const ::testing::TestParamInfo<HeapKind>& p) {
                           return HeapKindName(p.param);
                         });

TEST(ServerHeap, HeapKindFactorySelectsLayouts) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg;
  auto seg = MakeServerHeap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  EXPECT_EQ(seg->name(), "ngx-segregated") << "segregated is the default layout";
  auto machine2 = MakeMachine(1);
  cfg.heap_kind = HeapKind::kAggregated;
  auto agg = MakeServerHeap(*machine2, kNgxHeapBase, kNgxMetaBase, cfg);
  EXPECT_EQ(agg->name(), "ngx-aggregated");
}

TEST(ServerHeap, SegregatedFreeStackGrowsPastSaturation) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg;
  cfg.stack_capacity = 4;  // tiny per-class free stack
  auto heap = MakeServerHeap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 16; ++i) {
    blocks.push_back(heap->Malloc(env, 64));
  }
  // Freeing more blocks than the dense stack holds used to drop the excess
  // silently -- a permanent leak. The overflow stack must keep every one of
  // them reusable.
  for (const Addr a : blocks) {
    heap->Free(env, a);
  }
  EXPECT_EQ(heap->stats().bytes_live, 0u);
  const std::uint64_t mapped_after_free = heap->stats().mapped_bytes;
  std::set<Addr> reused;
  for (int i = 0; i < 16; ++i) {
    reused.insert(heap->Malloc(env, 64));
  }
  EXPECT_EQ(reused, std::set<Addr>(blocks.begin(), blocks.end()))
      << "overflowed frees must be recycled before any fresh carve";
  EXPECT_EQ(heap->stats().mapped_bytes, mapped_after_free);
  for (const Addr a : blocks) {
    heap->Free(env, a);
  }
  EXPECT_EQ(heap->stats().bytes_live, 0u);
}

TEST(ServerHeapDeathTest, SegregatedFreeStackOverflowExhaustionFailsLoudly) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg;
  cfg.stack_capacity = 4;  // dense 4 + overflow 4*64 = 260 pending frees max
  auto heap = MakeServerHeap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 300; ++i) {
    blocks.push_back(heap->Malloc(env, 64));
  }
  // Past the overflow bound the heap must abort with a diagnostic, never
  // drop a block.
  EXPECT_DEATH_IF_SUPPORTED(
      {
        for (const Addr a : blocks) {
          heap->Free(env, a);
        }
      },
      "overflow exhausted");
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
  // The span's 16-bit class tag must live in the metadata window, far from
  // the block itself.
  const Region* r = machine->address_map().Find(kNgxMetaBase);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->name, "ngx-meta");
  EXPECT_GE(a, kNgxHeapBase);
  EXPECT_LT(a, kNgxHeapBase + kHeapWindow);
}

// ------------------------------------------------------------------- UVM
TEST(UvmAllocator, MigratesOnFirstTouchFromEachSide) {
  auto machine = MakeMachine(1);
  UvmAllocator uvm(*machine, kGpuHeapBase);
  Env env(*machine, 0);
  const Addr a = uvm.Malloc(env, 256 * 1024);  // 4 UVM pages of 64 KiB
  ASSERT_NE(a, kNullAddr);
  uvm.HostAccess(env, a, 256 * 1024, true);
  EXPECT_EQ(uvm.stats().host_to_device_migrations, 0u);
  uvm.DeviceAccess(env, a, 256 * 1024, false);
  EXPECT_EQ(uvm.stats().host_to_device_migrations, 4u);
  uvm.DeviceAccess(env, a, 256 * 1024, false);
  EXPECT_EQ(uvm.stats().host_to_device_migrations, 4u) << "already resident";
  uvm.HostAccess(env, a, 64 * 1024, false);
  EXPECT_EQ(uvm.stats().device_to_host_migrations, 1u) << "partial migration back";
  uvm.Free(env, a);
}

TEST(UvmAllocator, AsyncAllocDefersDriverWork) {
  auto machine = MakeMachine(1);
  UvmAllocator uvm(*machine, kGpuHeapBase);
  Env env(*machine, 0);
  uvm.Free(env, uvm.Malloc(env, 4096));  // warm the driver pool slab
  const std::uint64_t t0 = env.now();
  std::vector<Addr> bufs;
  for (int i = 0; i < 16; ++i) {
    bufs.push_back(uvm.MallocAsync(env, 4096));
  }
  const std::uint64_t enqueue_cost = env.now() - t0;
  uvm.StreamSync(env);
  const std::uint64_t total = env.now() - t0;
  EXPECT_LT(enqueue_cost, total / 2) << "most cost is paid at the sync point";
  EXPECT_EQ(uvm.stats().async_allocs, 16u);
  for (const Addr b : bufs) {
    uvm.Free(env, b);
  }
  EXPECT_EQ(uvm.stats().frees, 17u);  // 16 + the warm-up pair
}

TEST(UvmAllocator, FreeResetsResidency) {
  auto machine = MakeMachine(1);
  UvmAllocator uvm(*machine, kGpuHeapBase);
  Env env(*machine, 0);
  const Addr a = uvm.Malloc(env, 64 * 1024);
  uvm.DeviceAccess(env, a, 64 * 1024, true);
  uvm.Free(env, a);
  const Addr b = uvm.Malloc(env, 64 * 1024);
  // Fresh allocation (even at a reused address range) must not think pages
  // are device-resident.
  uvm.HostAccess(env, b, 64 * 1024, true);
  EXPECT_EQ(uvm.stats().device_to_host_migrations, 0u);
  uvm.Free(env, b);
}

}  // namespace
}  // namespace ngx
