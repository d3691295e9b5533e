// Slab / segment metadata layout for the segment server heap (DESIGN.md §10).
//
// A *segment* is one span-sized, span-aligned mapping carved from the shard's
// span provider, split into kUnitsPerSegment equal *slab units*. A *slab* is
// the carve context for one size class: one unit for classes whose block fits
// a unit, the whole segment for the few classes between unit_bytes and
// small_max. All bookkeeping lives in dense side tables in the metadata
// window (never inside segments), addressed by pure arithmetic from the block
// address with a wrapped index, so slabs carved from donated ranges land on
// deterministic, collision-free metadata addresses too.
//
// The hot structure is the 64-byte *slab header line*:
//   +0   state word: free_count (u16) | bump_used (u16)
//   +8   next slab header addr  (per-class available-slab list, 0 = null)
//   +16  prev slab header addr
//   +24  kInlineEntries (20) u16 freelist entries (block indices)
// Freelist depth beyond the inline entries spills to a per-unit overflow row.
// Headers are a dense 64-byte-stride side table: consecutive units map to
// consecutive cache lines, so slab bookkeeping spreads uniformly over all L1
// sets instead of aliasing the one set that span-aligned in-segment headers
// would share (and conflict-miss against stash lines published at aligned
// bases). The overflow stride is an odd number of lines for the same reason.
//
// The 32-byte *segment directory* entry tracks unit recycling:
//   +0   free-unit mask (kUnitsPerSegment low bits)
//   +8   next segment base (partial-segment list, 0 = null)
//   +16  prev segment base
//   +24  spare (zero)
// Invariant: a segment is linked into the partial list iff its mask is
// neither empty (fully carved) nor full (fully recycled); a fully-recycled
// segment leaves through the empty pool or an Unmap, which is what makes it
// eligible for SpanDirectory's kReturnSpan protocol.
#ifndef NGX_SRC_CORE_SLAB_H_
#define NGX_SRC_CORE_SLAB_H_

#include <cstdint>

#include "src/sim/types.h"

namespace ngx {

inline constexpr std::uint64_t kUnitsPerSegment = 4;
inline constexpr std::uint32_t kSlabInlineEntries = 20;
inline constexpr std::uint64_t kSlabHeaderBytes = 64;
inline constexpr std::uint64_t kSegDirEntryBytes = 32;

// Packs/unpacks the slab header state word.
constexpr std::uint64_t PackSlabState(std::uint32_t free_count, std::uint32_t bump_used) {
  return static_cast<std::uint64_t>(free_count) |
         (static_cast<std::uint64_t>(bump_used) << 16);
}
constexpr std::uint32_t SlabFreeCount(std::uint64_t state) {
  return static_cast<std::uint32_t>(state & 0xffff);
}
constexpr std::uint32_t SlabBumpUsed(std::uint64_t state) {
  return static_cast<std::uint32_t>((state >> 16) & 0xffff);
}

// Address arithmetic for the segment heap's metadata window. Host-side
// constant state only; every simulated access happens through the Env at the
// call sites in segment_heap.cc.
class SlabLayout {
 public:
  // `meta_window` limits the startup mapping sanity check; 0 = unchecked.
  SlabLayout(Addr heap_base, Addr meta_base, std::uint64_t span_bytes,
             std::uint32_t num_classes, std::uint32_t empty_pool_capacity);

  std::uint64_t span_bytes() const { return span_bytes_; }
  std::uint64_t unit_bytes() const { return unit_bytes_; }

  // Wrapped indices: addresses below heap_base (donated from a lower shard's
  // slice) wrap to huge indices whose metadata lands deep in untouched sparse
  // address space -- deterministic and disjoint from the dense tables below.
  std::uint64_t SegIndex(Addr a) const { return (a - heap_base_) / span_bytes_; }
  std::uint64_t UnitIndex(Addr a) const { return (a - heap_base_) / unit_bytes_; }

  Addr SegBase(Addr a) const { return a & ~(span_bytes_ - 1); }
  Addr UnitBase(Addr a) const { return a & ~(unit_bytes_ - 1); }
  // Inverse maps (wrap-safe: the multiplications undo the wrapped divisions
  // for donated-range indices too).
  Addr SlabBase(std::uint64_t unit) const { return heap_base_ + unit * unit_bytes_; }
  std::uint64_t UnitOfHeader(Addr header) const {
    return (header - meta_base_ - header_off_) / kSlabHeaderBytes;
  }

  Addr LockAddr() const { return meta_base_; }
  Addr ClassHeadAddr(std::uint32_t cls) const {
    return meta_base_ + class_heads_off_ + 8ull * cls;
  }
  Addr PartialHeadAddr() const { return meta_base_ + partial_head_off_; }
  Addr EmptyPoolAddr() const { return meta_base_ + empty_pool_off_; }
  Addr SegDirAddr(std::uint64_t seg) const {
    return meta_base_ + seg_dir_off_ + kSegDirEntryBytes * seg;
  }
  Addr ClassMapAddr(std::uint64_t unit) const {
    return meta_base_ + classmap_off_ + 2 * unit;
  }
  Addr LargeBytesAddr(std::uint64_t seg) const {
    return meta_base_ + largemap_off_ + 8 * seg;
  }
  Addr HeaderAddr(std::uint64_t unit) const {
    return meta_base_ + header_off_ + kSlabHeaderBytes * unit;
  }
  Addr OverflowBase(std::uint64_t unit) const {
    return meta_base_ + overflow_off_ + overflow_stride_ * unit;
  }
  // Freelist entry address for entry index `i` of the slab whose first unit
  // is `unit`: inline in the header line below kSlabInlineEntries, spilled to
  // the unit's overflow row beyond.
  Addr EntryAddr(std::uint64_t unit, std::uint32_t i) const {
    if (i < kSlabInlineEntries) {
      return HeaderAddr(unit) + 24 + 2ull * i;
    }
    return OverflowBase(unit) + 2ull * (i - kSlabInlineEntries);
  }

  // Bytes of metadata mapped at startup: the read-mostly tables (class heads,
  // empty pool, segment directory, class map, large map). Slab header and
  // overflow rows follow at fixed offsets but stay unmapped -- they are
  // demand-touched sparse memory, materialized per slab actually carved, so
  // mapped_bytes reflects footprint instead of the worst-case table.
  std::uint64_t MappedMetaBytes() const { return mapped_meta_bytes_; }
  std::uint64_t overflow_stride() const { return overflow_stride_; }

 private:
  Addr heap_base_;
  Addr meta_base_;
  std::uint64_t span_bytes_;
  std::uint64_t unit_bytes_;
  std::uint64_t class_heads_off_;
  std::uint64_t partial_head_off_;
  std::uint64_t empty_pool_off_;
  std::uint64_t seg_dir_off_;
  std::uint64_t classmap_off_;
  std::uint64_t largemap_off_;
  std::uint64_t header_off_;
  std::uint64_t overflow_off_;
  std::uint64_t overflow_stride_;
  std::uint64_t mapped_meta_bytes_;
};

}  // namespace ngx

#endif  // NGX_SRC_CORE_SLAB_H_
