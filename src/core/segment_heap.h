// SegmentHeap: Figure 2's segregated layout behind the ServerHeap interface,
// built as a segment + slab carve path (DESIGN.md §10).
//
// All block bookkeeping lives in dense side tables in the metadata window,
// never in the blocks. The carve state for a size class is distributed over
// *slabs*: each slab's freelist count, bump cursor and the first 20 free
// entries share ONE 64-byte header line, so steady-state malloc/free touch
// the class head line plus that one header line, however deep the class's
// free population grows. Fully-free slabs retire their unit back to the
// owning segment; fully-recycled segments park in a bounded empty pool and
// are unmapped beyond it -- which is what feeds SpanDirectory's kRecycled
// state and makes donated segments eligible to return home.
#ifndef NGX_SRC_CORE_SEGMENT_HEAP_H_
#define NGX_SRC_CORE_SEGMENT_HEAP_H_

#include <memory>
#include <vector>

#include "src/core/server_heap.h"
#include "src/core/slab.h"
#include "src/telemetry/metrics.h"

namespace ngx {

// Host-side carve-path observability. The slab split is unit_reuses +
// segment_reuses (slab recycled) against fresh_segments (slab mapped).
struct SegmentHeapStats {
  std::uint64_t freelist_pops = 0;   // malloc served from a slab freelist
  std::uint64_t bump_carves = 0;     // malloc served from a slab's bump cursor
  std::uint64_t slab_acquires = 0;   // slabs handed to a class
  std::uint64_t slab_retires = 0;    // fully-free slabs recycled
  std::uint64_t slab_retains = 0;    // retires avoided by the retention cache
  std::uint64_t unit_reuses = 0;     // slab acquired from a partial segment
  std::uint64_t segment_reuses = 0;  // segment acquired from the empty pool
  std::uint64_t fresh_segments = 0;  // segment acquired by mapping
  std::uint64_t segments_unmapped = 0;
  std::uint64_t overflow_spills = 0;  // freelist entries past the inline 20
};

class SegmentHeap : public ServerHeap {
 public:
  SegmentHeap(Machine& machine, Addr heap_base, Addr meta_base,
              const ServerHeapConfig& config);

  std::string_view name() const override { return "ngx-segment"; }
  Addr Malloc(Env& env, std::uint64_t size) override;
  void Free(Env& env, Addr addr) override;
  std::uint64_t UsableSize(Env& env, Addr addr) override;
  std::int64_t ClassifyForRecycle(Env& env, Addr addr) override;
  AllocatorStats stats() const override;
  HeapOccupancy Inspect() const override;
  PageProvider& span_provider() override { return span_provider_; }

  const SegmentHeapStats& segment_stats() const { return seg_stats_; }
  const SlabLayout& layout() const { return layout_; }

 private:
  // Class map tags: 16-bit, one per slab unit, read by the client-side
  // recycle fast path (ClassifyForRecycle).
  static constexpr std::uint16_t kTagFree = 0;
  static constexpr std::uint16_t kTagLarge = 1;
  static constexpr std::uint16_t kTagClassBase = 2;

  // A class whose block exceeds one slab unit carves whole segments.
  bool WholeSegmentClass(std::uint32_t cls) const {
    return classes_.SizeOf(cls) > layout_.unit_bytes();
  }
  std::uint32_t BlocksPerSlab(std::uint32_t cls) const {
    return static_cast<std::uint32_t>(
        (WholeSegmentClass(cls) ? layout_.span_bytes() : layout_.unit_bytes()) /
        classes_.SizeOf(cls));
  }

  void MaybeLock(Env& env);
  void MaybeUnlock(Env& env);

  Addr MallocSmall(Env& env, std::uint64_t size);
  Addr MallocLarge(Env& env, std::uint64_t size);
  void FreeSmall(Env& env, Addr addr, std::uint32_t cls);

  // Slab lifecycle. AcquireSlab links a fresh slab for `cls` at the class
  // head and returns its first-unit index (or ~0ull on OOM); RetireSlab
  // unlinks a fully-free, non-head slab (when it is linked at all) and
  // recycles its unit(s).
  std::uint64_t AcquireSlab(Env& env, std::uint32_t cls);
  void RetireSlab(Env& env, std::uint32_t cls, std::uint64_t unit, Addr header,
                  bool in_list);

  // Segment lifecycle.
  Addr AcquireUnit(Env& env);        // one free unit, from a partial segment
  Addr AcquireSegment(Env& env);     // empty pool first, then a fresh mapping
  void ReleaseUnit(Env& env, Addr unit_base);
  void RetireSegment(Env& env, Addr seg_base);
  void UnlinkPartial(Env& env, Addr seg_base, Addr dir);

  bool Recording();
  void BindInstruments();

  // Per-class retention cache (ServerHeapConfig::slab_retain_depth): lazy
  // retirement keeps up to retain_depth_ fully-free slabs linked per class
  // instead of retiring them. free_slabs_ is the host-side count of linked
  // fully-free slabs per class -- the slabs themselves just stay in the
  // class list, so the simulated state is exactly "this slab was never
  // retired". MallocSmall decrements the count when it carves from a fully
  // free slab (it stops being retained by becoming useful).

  ServerHeapConfig config_;
  SizeClasses classes_;
  PageProvider span_provider_;
  PageProvider meta_provider_;
  Machine* machine_;
  SlabLayout layout_;
  SimLock lock_;
  AllocatorStats stats_;
  SegmentHeapStats seg_stats_;
  // Host mirrors of the large-mapping population so Inspect() never has to
  // sweep the sparse large map.
  std::uint64_t large_blocks_ = 0;
  std::uint64_t large_bytes_ = 0;

  std::uint32_t retain_depth_ = 0;
  std::vector<std::uint32_t> free_slabs_;  // per class, linked fully-free slabs

  bool instruments_bound_ = false;
  Counter* c_slab_reuses_ = nullptr;
  Counter* c_slab_fresh_ = nullptr;
};

std::unique_ptr<SegmentHeap> MakeSegmentHeap(Machine& machine, Addr heap_base,
                                             Addr meta_base, const ServerHeapConfig& config);

}  // namespace ngx

#endif  // NGX_SRC_CORE_SEGMENT_HEAP_H_
