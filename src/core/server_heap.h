// Single-owner heaps used by the NextGen-Malloc server core.
//
// The interface is layout-agnostic; the two variants behind the HeapKind
// selector are Figure 2's two layouts:
//  * SegmentHeap    -- the segregated layout (segment_heap.h): 16-bit class
//    tags and per-slab freelists in dense side tables far from user data,
//    each slab's whole carve state on one header line.
//  * AggregatedHeap -- intrusive free lists and per-block headers inline
//    with user data.
// An optional lock models Section 3.1.3's removable atomics.
#ifndef NGX_SRC_CORE_SERVER_HEAP_H_
#define NGX_SRC_CORE_SERVER_HEAP_H_

#include <memory>
#include <string_view>
#include <vector>

#include "src/alloc/allocator.h"
#include "src/alloc/page_provider.h"
#include "src/alloc/sim_lock.h"
#include "src/alloc/size_classes.h"
#include "src/core/heap_kind.h"
#include "src/telemetry/flight_recorder.h"

namespace ngx {

class ServerHeap {
 public:
  virtual ~ServerHeap() = default;
  virtual std::string_view name() const = 0;
  virtual Addr Malloc(Env& env, std::uint64_t size) = 0;
  virtual void Free(Env& env, Addr addr) = 0;
  virtual std::uint64_t UsableSize(Env& env, Addr addr) = 0;
  // Size class of a live small block, or -1 for large mappings. Unlike every
  // other method this one is issued by CLIENT cores (the stash recycle fast
  // path, DESIGN.md §9): one timed load of read-mostly metadata -- the
  // segment heap's class map is written only when a slab is acquired or
  // retired, so its few lines stay resident in client caches; the aggregated
  // variant reads the block's inline header, a line the freeing client owns
  // anyway.
  virtual std::int64_t ClassifyForRecycle(Env& env, Addr addr) = 0;
  // bytes_requested sums the sizes of the carves that succeeded; a failed
  // attempt counts in mallocs and oom_failures only.
  virtual AllocatorStats stats() const = 0;
  // Untimed occupancy walk for the flight recorder (see HeapOccupancy).
  virtual HeapOccupancy Inspect() const = 0;
  // The provider carving this heap's data window (spans and large regions).
  // The elastic fabric grafts donated span ranges onto it and observes its
  // mappings; never the metadata provider.
  virtual PageProvider& span_provider() = 0;
};

struct ServerHeapConfig {
  // Which layout backs the shard (README's knob table): the segregated
  // segment heap by default, or Figure 2's aggregated contrast.
  HeapKind heap_kind = HeapKind::kSegment;
  bool use_lock = false;  // keep the 2-atomics-per-op lock (ablation)
  bool hugepage_spans = true;
  // Back the metadata window (segment directory and slab side tables, or the
  // aggregated list heads) with 2-MiB mappings instead of 4-KiB ones
  // (NgxConfig::hugepage_metadata).
  bool hugepage_metadata = false;
  std::uint64_t span_bytes = 128 * 1024;
  std::uint64_t small_max = 32 * 1024;
  // Segment heap only: fully-recycled segments kept mapped in the empty pool
  // (amortizes map/unmap churn); beyond this many, a recycled segment is
  // unmapped -- which is also what makes a donated segment returnable, so
  // span-return tests set 0.
  std::uint32_t empty_segment_retain = 8;
  // Segment heap only: lazy-retire hysteresis -- keep up to this many fully
  // free slabs linked per class instead of retiring them (0 = retire
  // eagerly on every fully-free transition). Unit-block classes (8-16 KiB
  // blocks, one or two blocks per slab) otherwise retire a slab on every
  // free under steady churn and pay the full slab-acquire path -- and, past
  // the slice budget, a span-donation round trip -- on the next malloc; a
  // few slabs of hysteresis absorb the random-walk excursions of multi-class
  // churn. Only effective with empty_segment_retain > 0: both knobs express
  // the keep-mapped vs return-everything trade, and span-return tests that
  // set retain 0 need retirement to stay eager so donated segments can
  // recycle home.
  std::uint32_t slab_retain_depth = 4;
  // Size of the heap/metadata windows starting at heap_base/meta_base.
  // 0 means the full kHeapWindow; the sharded fabric passes
  // kHeapWindow / num_shards so shard partitions stay disjoint.
  std::uint64_t window_bytes = 0;
  // Metadata window override: the side tables are sized by span count, not
  // by the data window, so a shrunken data window (elastic-fabric tests)
  // still needs the full metadata slice. 0 = same as window_bytes.
  std::uint64_t meta_window_bytes = 0;
};

// Factory: config.heap_kind selects the layout. `heap_base`/`meta_base`
// carve disjoint windows.
std::unique_ptr<ServerHeap> MakeServerHeap(Machine& machine, Addr heap_base, Addr meta_base,
                                           const ServerHeapConfig& config);

}  // namespace ngx

#endif  // NGX_SRC_CORE_SERVER_HEAP_H_
