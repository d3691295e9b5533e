#include "src/core/slab.h"

#include "src/alloc/freelist.h"
#include "src/sim/check.h"

namespace ngx {

SlabLayout::SlabLayout(Addr heap_base, Addr meta_base, std::uint64_t span_bytes,
                       std::uint32_t num_classes, std::uint32_t empty_pool_capacity)
    : heap_base_(heap_base), meta_base_(meta_base), span_bytes_(span_bytes) {
  NGX_CHECK(span_bytes >= 4096 && (span_bytes & (span_bytes - 1)) == 0,
            "segment size must be a power of two of at least one page");
  unit_bytes_ = span_bytes / kUnitsPerSegment;
  // Dense table capacities cover 32 GiB of segments per shard; indices
  // beyond that (donated ranges) land in the sparse tail / wrapped space past
  // the dense tables.
  const std::uint64_t max_segments = (32ull << 30) / span_bytes;
  const std::uint64_t max_units = max_segments * kUnitsPerSegment;
  class_heads_off_ = 64;  // the lock keeps its own line
  partial_head_off_ = class_heads_off_ + 8ull * num_classes;
  empty_pool_off_ = AlignUp(partial_head_off_ + 8, 64);
  const std::uint64_t empty_pool_bytes =
      empty_pool_capacity > 0 ? IndexStack::FootprintBytes(empty_pool_capacity) : 0;
  seg_dir_off_ = AlignUp(empty_pool_off_ + empty_pool_bytes, kSmallPageBytes);
  classmap_off_ = AlignUp(seg_dir_off_ + kSegDirEntryBytes * max_segments, kSmallPageBytes);
  largemap_off_ = AlignUp(classmap_off_ + 2 * max_units, kSmallPageBytes);
  mapped_meta_bytes_ = AlignUp(largemap_off_ + 8 * max_segments, kSmallPageBytes);
  header_off_ = mapped_meta_bytes_;
  overflow_off_ = AlignUp(header_off_ + kSlabHeaderBytes * max_units, kSmallPageBytes);
  // Worst-case freelist depth = smallest block (16 B) filling a unit; the
  // row covers everything past the inline entries. Rounding up to an ODD
  // number of cache lines makes successive units' rows walk every L1 set
  // (gcd(lines, sets) = 1) instead of reusing a handful.
  const std::uint64_t max_blocks = unit_bytes_ / 16;
  std::uint64_t stride = AlignUp(
      2 * (max_blocks > kSlabInlineEntries ? max_blocks - kSlabInlineEntries : 0), 64);
  if ((stride / 64) % 2 == 0) {
    stride += 64;
  }
  overflow_stride_ = stride;
}

}  // namespace ngx
