// HeapKind: which server-side heap layout a shard runs.
//
// Split out of server_heap.h so configuration structs (NgxConfig,
// ServerHeapConfig) can name the selector without pulling in the heap
// interface; everything layout-specific lives behind the ServerHeap factory.
#ifndef NGX_SRC_CORE_HEAP_KIND_H_
#define NGX_SRC_CORE_HEAP_KIND_H_

namespace ngx {

enum class HeapKind {
  // Figure 2's segregated layout (the default), built as the segment + slab
  // carve path (DESIGN.md §10): fixed-size mapped segments holding
  // size-classed slabs, 16-bit class tags and per-slab freelists in dense
  // side tables far from user data, per-segment slab recycling.
  kSegment,
  // Figure 2's aggregated layout: per-block headers and intrusive free lists
  // inline with user data.
  kAggregated,
};

inline const char* HeapKindName(HeapKind k) {
  switch (k) {
    case HeapKind::kSegment:
      return "segment";
    case HeapKind::kAggregated:
      return "aggregated";
  }
  return "unknown";
}

}  // namespace ngx

#endif  // NGX_SRC_CORE_HEAP_KIND_H_
