// Segment + slab server heap tests (DESIGN.md §10):
//
//  * slab carve mechanics: freelist pops vs bump carves, exhausted slabs
//    leaving and rejoining the class list, fully-free slabs retiring their
//    unit back to the segment, partial-segment unit reuse;
//  * empty-pool retention semantics (ServerHeapConfig::empty_segment_retain):
//    recycled segments park mapped up to the bound, unmap beyond / at 0;
//  * freelist overflow past the 20 inline header entries;
//  * metadata geometry: header lines of consecutive units cover every L1 set,
//    overflow rows stride an odd number of lines;
//  * ClassifyForRecycle across both heap kinds (small class, large -1), and
//    its agreement with UsableSize;
//  * donated ranges below heap_base: wrapped-index metadata carves, frees and
//    classifies correctly, and recycled donated segments unmap (the hook the
//    span directory's return protocol needs);
//  * carving a range AFTER it returns home (TrimTail out, AddRange back);
//  * randomized malloc/free churn through the real 2/4-shard fabric with the
//    segment heap behind every shard, auditing the span directory afterwards;
//  * determinism: identical runs produce identical clocks and stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/alloc/layout.h"
#include "src/alloc/size_classes.h"
#include "src/core/nextgen_malloc.h"
#include "src/core/segment_heap.h"
#include "src/core/span_directory.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

constexpr std::uint64_t kSeg = 128 * 1024;   // ServerHeapConfig default span
constexpr std::uint64_t kUnit = kSeg / kUnitsPerSegment;  // 32 KiB

ServerHeapConfig SegmentConfig(std::uint32_t retain = 8) {
  ServerHeapConfig cfg;
  cfg.heap_kind = HeapKind::kSegment;
  cfg.hugepage_spans = false;  // tight span-sized mappings
  cfg.empty_segment_retain = retain;
  return cfg;
}

// ---- Slab carve mechanics ----

TEST(SegmentHeap, ChurnPopsFreelistsRetiresSlabsAndReusesUnits) {
  auto machine = MakeMachine(1);
  // Eager retirement (no retention cache): this test pins the historical
  // retire-on-fully-free mechanics; the retention cache has its own tests.
  ServerHeapConfig cfg = SegmentConfig();
  cfg.slab_retain_depth = 0;
  SegmentHeap heap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  Env env(*machine, 0);
  // 600 x 64 B: slab 0 (512 blocks) exhausts and unlinks, slab 1 serves the
  // rest from a reused unit of the same segment.
  std::vector<Addr> blocks;
  for (int i = 0; i < 600; ++i) {
    const Addr a = heap.Malloc(env, 64);
    ASSERT_NE(a, kNullAddr);
    blocks.push_back(a);
  }
  const SegmentHeapStats& st = heap.segment_stats();
  EXPECT_EQ(st.bump_carves, 600u);
  EXPECT_EQ(st.fresh_segments, 1u) << "both slabs fit one segment";
  EXPECT_EQ(st.unit_reuses, 1u) << "slab 1 must come from the partial segment";
  // Free everything in allocation order: slab 0 re-links on its first free,
  // slab 1 (fully free, not the class head) retires its unit.
  for (const Addr a : blocks) {
    heap.Free(env, a);
  }
  EXPECT_GE(st.slab_retires, 1u);
  EXPECT_EQ(heap.stats().bytes_live, 0u);
  // Reallocate: the surviving head slab serves from its freelist first.
  for (int i = 0; i < 600; ++i) {
    ASSERT_NE(heap.Malloc(env, 64), kNullAddr);
  }
  EXPECT_EQ(st.freelist_pops, 512u) << "every head-slab block reused LIFO";
  EXPECT_EQ(st.fresh_segments, 1u) << "churn must not map new segments";
  const AllocatorStats s = heap.stats();
  EXPECT_EQ(s.mallocs - s.frees, 600u);
}

TEST(SegmentHeap, EmptyPoolParksRecycledSegmentsForReuse) {
  auto machine = MakeMachine(1);
  SegmentHeap heap(*machine, kNgxHeapBase, kNgxMetaBase, SegmentConfig(/*retain=*/2));
  Env env(*machine, 0);
  // 32 KiB blocks: one block per slab unit, so 8 allocations carve exactly
  // two segments.
  std::vector<Addr> blocks;
  for (int i = 0; i < 8; ++i) {
    blocks.push_back(heap.Malloc(env, kUnit));
    ASSERT_NE(blocks.back(), kNullAddr);
  }
  const SegmentHeapStats& st = heap.segment_stats();
  EXPECT_EQ(st.fresh_segments, 2u);
  for (const Addr a : blocks) {
    heap.Free(env, a);
  }
  // The first segment fully recycled into the empty pool; the head slab's
  // unit keeps the second one partial. Nothing unmapped.
  EXPECT_EQ(st.segments_unmapped, 0u);
  EXPECT_EQ(heap.stats().munmap_calls, 0u);
  // Refilling consumes the head slab's freelist, the partial segment's free
  // units, and then the parked segment -- never a fresh mapping.
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(heap.Malloc(env, kUnit), kNullAddr);
  }
  EXPECT_GE(st.segment_reuses, 1u) << "the parked segment must be reused";
  EXPECT_EQ(st.fresh_segments, 2u);
}

TEST(SegmentHeap, ZeroRetentionUnmapsRecycledSegments) {
  auto machine = MakeMachine(1);
  SegmentHeap heap(*machine, kNgxHeapBase, kNgxMetaBase, SegmentConfig(/*retain=*/0));
  Env env(*machine, 0);
  const std::uint64_t meta_mapped = heap.stats().mapped_bytes;
  std::vector<Addr> blocks;
  for (int i = 0; i < 8; ++i) {
    blocks.push_back(heap.Malloc(env, kUnit));
    ASSERT_NE(blocks.back(), kNullAddr);
  }
  EXPECT_EQ(heap.stats().mapped_bytes, meta_mapped + 2 * kSeg);
  for (const Addr a : blocks) {
    heap.Free(env, a);
  }
  // One-block slabs exhaust on their only alloc (leaving the class list), so
  // every free retires its slab: both segments fully recycle and, with no
  // pool to park in, must be unmapped immediately.
  EXPECT_EQ(heap.segment_stats().segments_unmapped, 2u);
  EXPECT_EQ(heap.stats().mapped_bytes, meta_mapped);
}

TEST(SegmentHeap, RetentionCacheStopsUnitBlockRetireChurn) {
  auto machine = MakeMachine(1);
  SegmentHeap heap(*machine, kNgxHeapBase, kNgxMetaBase, SegmentConfig());
  Env env(*machine, 0);
  // kUnit blocks carve one-block slabs: each malloc exhausts its slab on the
  // spot and each free makes it fully free again. Without retention that is
  // a RetireSlab on EVERY free and a full slab acquire on every malloc; the
  // retention cache turns steady churn into freelist pops on one pinned
  // slab.
  const SegmentHeapStats& st = heap.segment_stats();
  for (int round = 0; round < 100; ++round) {
    const Addr a = heap.Malloc(env, kUnit);
    ASSERT_NE(a, kNullAddr);
    heap.Free(env, a);
  }
  EXPECT_EQ(st.slab_retires, 0u) << "churn must not retire the hot slab";
  EXPECT_EQ(st.slab_retains, 100u) << "every free parks the slab in the cache";
  EXPECT_EQ(st.slab_acquires, 1u) << "one slab serves the whole churn";
  EXPECT_EQ(st.freelist_pops, 99u) << "every re-malloc pops the retained slab";
  EXPECT_EQ(st.fresh_segments, 1u);
  EXPECT_EQ(heap.stats().bytes_live, 0u);
}

TEST(SegmentHeap, RetentionDisabledRetiresOnEveryChurnRound) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg = SegmentConfig();
  cfg.slab_retain_depth = 0;
  SegmentHeap heap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  Env env(*machine, 0);
  // The same churn with the cache off: the historical worst case, one retire
  // and one slab acquire per round (the figure the retention cache erases).
  const SegmentHeapStats& st = heap.segment_stats();
  for (int round = 0; round < 100; ++round) {
    const Addr a = heap.Malloc(env, kUnit);
    ASSERT_NE(a, kNullAddr);
    heap.Free(env, a);
  }
  EXPECT_EQ(st.slab_retires, 100u);
  EXPECT_EQ(st.slab_retains, 0u);
  EXPECT_EQ(st.slab_acquires, 100u);
  EXPECT_EQ(heap.stats().bytes_live, 0u);
}

TEST(SegmentHeap, RetentionDepthBoundsFullyFreeSlabs) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg = SegmentConfig();
  cfg.slab_retain_depth = 1;
  SegmentHeap heap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  Env env(*machine, 0);
  // Two live one-block slabs at depth 1; freeing both can retain only one.
  // The second fully-free slab must retire: retention is a bounded cache,
  // not a leak of every fully-free slab.
  const Addr a = heap.Malloc(env, kUnit);
  const Addr b = heap.Malloc(env, kUnit);
  ASSERT_NE(a, kNullAddr);
  ASSERT_NE(b, kNullAddr);
  const SegmentHeapStats& st = heap.segment_stats();
  heap.Free(env, a);
  EXPECT_EQ(st.slab_retains, 1u);
  heap.Free(env, b);
  EXPECT_EQ(st.slab_retains, 1u) << "the cache is full; slab b must retire";
  EXPECT_EQ(st.slab_retires, 1u);
  EXPECT_EQ(heap.stats().bytes_live, 0u);
}

TEST(SegmentHeap, LazyRetireHysteresisAbsorbsMultiSlabExcursions) {
  auto machine = MakeMachine(1);
  SegmentHeap heap(*machine, kNgxHeapBase, kNgxMetaBase, SegmentConfig());
  Env env(*machine, 0);
  // Six live one-block slabs freed in a burst against the default depth (4):
  // the first four fully-free slabs park in the cache, the overflow retires.
  std::vector<Addr> blocks;
  for (int i = 0; i < 6; ++i) {
    blocks.push_back(heap.Malloc(env, kUnit));
    ASSERT_NE(blocks.back(), kNullAddr);
  }
  const SegmentHeapStats& st = heap.segment_stats();
  for (const Addr a : blocks) {
    heap.Free(env, a);
  }
  EXPECT_EQ(st.slab_retains, 4u);
  EXPECT_EQ(st.slab_retires, 2u);
  // Re-allocating drains the cache before carving anything fresh.
  const std::uint64_t acquires_before = st.slab_acquires;
  std::vector<Addr> again;
  for (int i = 0; i < 4; ++i) {
    again.push_back(heap.Malloc(env, kUnit));
    ASSERT_NE(again.back(), kNullAddr);
  }
  EXPECT_EQ(st.slab_acquires, acquires_before) << "four mallocs pop retained slabs";
  for (const Addr a : again) {
    heap.Free(env, a);
  }
  EXPECT_EQ(heap.stats().bytes_live, 0u);
}

TEST(SegmentHeap, FreelistOverflowSpillsPastTheInlineEntries) {
  auto machine = MakeMachine(1);
  SegmentHeap heap(*machine, kNgxHeapBase, kNgxMetaBase, SegmentConfig());
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 64; ++i) {
    blocks.push_back(heap.Malloc(env, 64));
  }
  // The single slab is the class head, so freeing every block deepens its
  // freelist to 64 without retiring it: 44 entries spill past the inline 20.
  for (const Addr a : blocks) {
    heap.Free(env, a);
  }
  const SegmentHeapStats& st = heap.segment_stats();
  EXPECT_EQ(st.overflow_spills, 64u - kSlabInlineEntries);
  EXPECT_EQ(st.slab_retires, 0u);
  // Every block pops back out of the same slab (same address set).
  std::set<Addr> again;
  for (int i = 0; i < 64; ++i) {
    again.insert(heap.Malloc(env, 64));
  }
  EXPECT_EQ(st.freelist_pops, 64u);
  EXPECT_EQ(again, std::set<Addr>(blocks.begin(), blocks.end()));
}

// ---- Metadata geometry ----

TEST(SegmentHeap, HeaderLinesCoverEveryCacheSetAndOverflowStrideIsOdd) {
  auto machine = MakeMachine(1);
  SegmentHeap heap(*machine, kNgxHeapBase, kNgxMetaBase, SegmentConfig());
  const SlabLayout& layout = heap.layout();
  // Consecutive units' header lines are consecutive 64 B lines: 64 units
  // cover all 64 L1 sets (a span-aligned in-segment header would alias one).
  std::set<std::uint64_t> sets;
  for (std::uint64_t u = 0; u < 64; ++u) {
    ASSERT_EQ(layout.HeaderAddr(u + 1) - layout.HeaderAddr(u), kSlabHeaderBytes);
    sets.insert((layout.HeaderAddr(u) / 64) % 64);
  }
  EXPECT_EQ(sets.size(), 64u);
  // Overflow rows stride an odd number of lines, so successive units' rows
  // also walk every set (gcd(odd, 64) = 1).
  EXPECT_EQ(layout.overflow_stride() % 64, 0u);
  EXPECT_EQ((layout.overflow_stride() / 64) % 2, 1u);
  // The inline/overflow boundary of the freelist entry addressing.
  EXPECT_EQ(layout.EntryAddr(3, kSlabInlineEntries - 1),
            layout.HeaderAddr(3) + 24 + 2 * (kSlabInlineEntries - 1));
  EXPECT_EQ(layout.EntryAddr(3, kSlabInlineEntries), layout.OverflowBase(3));
}

// ---- ClassifyForRecycle across every heap kind ----

class ClassifyTest : public ::testing::TestWithParam<HeapKind> {};

TEST_P(ClassifyTest, SmallClassesMatchAndLargeIsMinusOne) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg;
  cfg.heap_kind = GetParam();
  auto heap = MakeServerHeap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  Env env(*machine, 0);
  const SizeClasses classes(cfg.small_max);
  // Every size class: a live small block classifies as its exact class.
  for (std::uint32_t cls = 0; cls < classes.num_classes(); cls += 7) {
    const Addr a = heap->Malloc(env, classes.SizeOf(cls));
    ASSERT_NE(a, kNullAddr);
    EXPECT_EQ(heap->ClassifyForRecycle(env, a), static_cast<std::int64_t>(cls));
    heap->Free(env, a);
  }
  // Large mappings must classify as -1 (never recycled through a stash).
  const Addr big = heap->Malloc(env, cfg.small_max + 1);
  ASSERT_NE(big, kNullAddr);
  EXPECT_EQ(heap->ClassifyForRecycle(env, big), -1);
  heap->Free(env, big);
}

// A client stash recycles a freed block under its class and later hands it
// out for any request of that class, so the class's size must be exactly the
// block's usable size -- for arbitrary request sizes, not just class sizes.
TEST_P(ClassifyTest, RecycleClassAgreesWithUsableSize) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg;
  cfg.heap_kind = GetParam();
  auto heap = MakeServerHeap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  Env env(*machine, 0);
  const SizeClasses classes(cfg.small_max);
  for (std::uint64_t size = 1; size <= cfg.small_max; size += 97) {
    const Addr a = heap->Malloc(env, size);
    ASSERT_NE(a, kNullAddr);
    const std::int64_t cls = heap->ClassifyForRecycle(env, a);
    ASSERT_EQ(cls, static_cast<std::int64_t>(classes.ClassOf(size))) << "size " << size;
    EXPECT_EQ(heap->UsableSize(env, a), classes.SizeOf(static_cast<std::uint32_t>(cls)))
        << "size " << size;
    heap->Free(env, a);
  }
  // A large block is never stash-recycled, but its usable size still covers
  // the request.
  const std::uint64_t big_size = cfg.small_max + 4097;
  const Addr big = heap->Malloc(env, big_size);
  ASSERT_NE(big, kNullAddr);
  EXPECT_EQ(heap->ClassifyForRecycle(env, big), -1);
  EXPECT_GE(heap->UsableSize(env, big), big_size);
  heap->Free(env, big);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ClassifyTest,
                         ::testing::Values(HeapKind::kSegment, HeapKind::kAggregated),
                         [](const ::testing::TestParamInfo<HeapKind>& p) {
                           return HeapKindName(p.param);
                         });

// ---- Donated ranges (the elastic fabric's AddRange graft, heap-level) ----

TEST(SegmentHeap, CarvesDonatedRangeBelowHeapBaseWithWrappedMetadata) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg = SegmentConfig(/*retain=*/0);
  cfg.window_bytes = 4 * kSeg;             // home slice: 4 segments
  cfg.meta_window_bytes = 1ull << 30;      // side tables sized by span count
  const Addr home_base = kNgxHeapBase + (16ull << 20);
  SegmentHeap heap(*machine, home_base, kNgxMetaBase, cfg);
  Env env(*machine, 0);
  // Exhaust the home slice with one 32 KiB block per unit.
  std::vector<Addr> home;
  for (int i = 0; i < 16; ++i) {
    home.push_back(heap.Malloc(env, kUnit));
    ASSERT_NE(home.back(), kNullAddr);
  }
  EXPECT_EQ(heap.Malloc(env, kUnit), kNullAddr) << "home slice must be dry";
  // Graft two segments donated from a LOWER shard's slice: every index the
  // layout computes for them wraps, and must still carve correctly.
  const Addr donated = kNgxHeapBase;
  heap.span_provider().AddRange(donated, 2 * kSeg);
  std::vector<Addr> away;
  for (int i = 0; i < 8; ++i) {
    const Addr a = heap.Malloc(env, kUnit);
    ASSERT_NE(a, kNullAddr);
    ASSERT_GE(a, donated);
    ASSERT_LT(a, donated + 2 * kSeg) << "must carve the grafted range";
    EXPECT_EQ(heap.ClassifyForRecycle(env, a),
              static_cast<std::int64_t>(SizeClasses(cfg.small_max).ClassOf(kUnit)));
    EXPECT_EQ(heap.UsableSize(env, a), kUnit);
    away.push_back(a);
  }
  // Release everything. One-block slabs always retire on free, so with no
  // retention every segment -- home and donated alike -- unmaps. Unmapping
  // is what lets the span directory mark donated segments kRecycled and
  // return them.
  for (const Addr a : away) {
    heap.Free(env, a);
  }
  for (const Addr a : home) {
    heap.Free(env, a);
  }
  EXPECT_EQ(heap.segment_stats().segments_unmapped, 6u);
  EXPECT_EQ(heap.stats().bytes_live, 0u);
  const AllocatorStats s = heap.stats();
  EXPECT_EQ(s.mallocs - s.oom_failures, s.frees);
}

TEST(SegmentHeap, CarvesAndClassifiesAfterARangeReturnsHome) {
  auto machine = MakeMachine(1);
  ServerHeapConfig cfg = SegmentConfig(/*retain=*/0);
  cfg.window_bytes = 4 * kSeg;
  cfg.meta_window_bytes = 1ull << 30;
  SegmentHeap heap(*machine, kNgxHeapBase, kNgxMetaBase, cfg);
  Env env(*machine, 0);
  // Donate the window's tail away (the sender side of kOfferSpans), leaving
  // two segments at home.
  const Addr lent = heap.span_provider().TrimTail(2 * kSeg, kSeg);
  ASSERT_NE(lent, kNullAddr);
  std::vector<Addr> blocks;
  for (int i = 0; i < 8; ++i) {
    blocks.push_back(heap.Malloc(env, kUnit));
    ASSERT_NE(blocks.back(), kNullAddr);
  }
  EXPECT_EQ(heap.Malloc(env, kUnit), kNullAddr) << "the lent tail must be gone";
  // The borrower recycled the segments and the return protocol grafted them
  // back: carving must resume into the returned range, classifying normally.
  heap.span_provider().AddRange(lent, 2 * kSeg);
  for (int i = 0; i < 8; ++i) {
    const Addr a = heap.Malloc(env, kUnit);
    ASSERT_NE(a, kNullAddr);
    ASSERT_GE(a, lent);
    ASSERT_LT(a, lent + 2 * kSeg);
    EXPECT_EQ(heap.ClassifyForRecycle(env, a),
              static_cast<std::int64_t>(SizeClasses(cfg.small_max).ClassOf(kUnit)));
    blocks.push_back(a);
  }
  for (const Addr a : blocks) {
    heap.Free(env, a);
  }
  EXPECT_EQ(heap.stats().bytes_live, 0u);
}

// ---- Randomized lifecycle stress through the real fabric ----

// Recomputes the directory's per-shard tallies from the per-span accessors
// (a lean version of test_span_rebalance.cc's auditor).
void AuditDirectory(const SpanDirectory& d) {
  std::vector<std::uint64_t> free_count(static_cast<std::size_t>(d.num_shards()), 0);
  std::vector<std::uint64_t> away_count(static_cast<std::size_t>(d.num_shards()), 0);
  for (std::uint64_t s = 0; s < d.num_spans(); ++s) {
    const int owner = d.OwnerOfSpan(s);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, d.num_shards());
    if (d.StateOfSpan(s) != SpanDirectory::SpanState::kGranted) {
      ++free_count[static_cast<std::size_t>(owner)];
    }
    if (d.HomeOfSpan(s) != owner) {
      ++away_count[static_cast<std::size_t>(owner)];
    }
  }
  std::uint64_t donated_out = 0;
  std::uint64_t donated_in = 0;
  for (int shard = 0; shard < d.num_shards(); ++shard) {
    EXPECT_EQ(d.free_spans(shard), free_count[static_cast<std::size_t>(shard)]);
    EXPECT_EQ(d.away_spans(shard), away_count[static_cast<std::size_t>(shard)]);
    donated_out += d.donated_out(shard);
    donated_in += d.donated_in(shard);
  }
  EXPECT_EQ(donated_out, donated_in);
  EXPECT_LE(d.total_returned(), d.total_donated());
}

class SegmentFabricStress : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(SegmentFabricStress, RandomChurnKeepsTheDirectoryConsistent) {
  const auto [seed, shards] = GetParam();
  auto machine = MakeMachine(shards + 2);
  NgxConfig cfg;
  cfg.num_shards = shards;
  cfg.heap_kind = HeapKind::kSegment;
  cfg.hugepage_spans = false;
  cfg.heap_window = static_cast<std::uint64_t>(shards) * 4 * 1024 * 1024;
  cfg.span_donation = true;
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 16;
  auto sys = MakeNgxSystem(*machine, cfg);
  ASSERT_EQ(sys.allocator->config().heap_kind, HeapKind::kSegment);
  ASSERT_EQ(sys.allocator->heap(0).name(), "ngx-segment");
  ShadowHeapExerciser ex(*machine, *sys.allocator, seed);
  for (int round = 0; round < 2; ++round) {
    for (int core = 0; core < 2; ++core) {
      ex.Run(core, 500, 40, 64, 48 * 1024);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  ex.FreeAll(0);
  for (int core = 0; core < 2; ++core) {
    Env env(*machine, core);
    sys.allocator->Flush(env);
  }
  sys.fabric->DrainAll();
  AuditDirectory(*sys.allocator->directory());
  const AllocatorStats stats = sys.allocator->stats();
  EXPECT_EQ(stats.mallocs, stats.frees);
  EXPECT_EQ(stats.bytes_live, 0u);
  EXPECT_EQ(sys.allocator->partition_oom_failures(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, SegmentFabricStress,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 42, 0xfeedface),
                       ::testing::Values(2, 4)),
    [](const ::testing::TestParamInfo<std::tuple<std::uint64_t, int>>& p) {
      return "seed" + std::to_string(std::get<0>(p.param)) + "_shards" +
             std::to_string(std::get<1>(p.param));
    });

// ---- Determinism ----

TEST(SegmentHeap, IdenticalRunsProduceIdenticalClocksAndStats) {
  auto run = [](std::uint64_t* cycles, SegmentHeapStats* st, AllocatorStats* as) {
    auto machine = MakeMachine(1);
    SegmentHeap heap(*machine, kNgxHeapBase, kNgxMetaBase, SegmentConfig(1));
    Env env(*machine, 0);
    Rng rng(7);
    std::vector<Addr> live;
    for (int i = 0; i < 3000; ++i) {
      if (live.size() < 20 || rng.Chance(1, 2)) {
        const Addr a = heap.Malloc(env, rng.Range(16, 40000));
        ASSERT_NE(a, kNullAddr);
        live.push_back(a);
      } else {
        const std::size_t pick = rng.Below(live.size());
        heap.Free(env, live[pick]);
        live.erase(live.begin() + static_cast<long>(pick));
      }
    }
    *cycles = env.now();
    *st = heap.segment_stats();
    *as = heap.stats();
  };
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  SegmentHeapStats s1;
  SegmentHeapStats s2;
  AllocatorStats a1;
  AllocatorStats a2;
  run(&c1, &s1, &a1);
  run(&c2, &s2, &a2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(s1.freelist_pops, s2.freelist_pops);
  EXPECT_EQ(s1.bump_carves, s2.bump_carves);
  EXPECT_EQ(s1.slab_retires, s2.slab_retires);
  EXPECT_EQ(s1.segments_unmapped, s2.segments_unmapped);
  EXPECT_EQ(a1.mapped_bytes, a2.mapped_bytes);
  EXPECT_EQ(a1.bytes_live, a2.bytes_live);
}

}  // namespace
}  // namespace ngx
