// Configuration knobs for NextGen-Malloc, matching the paper's research
// questions one for one:
//  * offload / server core type  -> Sections 3.1.1, 3.2
//  * heap_kind (metadata layout) -> Section 3.1.2 (Figure 2)
//  * remove_atomics              -> Section 3.1.3
//  * async_free                  -> Section 3.1.2 ("free is not on the
//                                   critical path and can run asynchronously")
//  * prediction                  -> Section 3.3.2 (predictive preallocation)
#ifndef NGX_SRC_CORE_NEXTGEN_CONFIG_H_
#define NGX_SRC_CORE_NEXTGEN_CONFIG_H_

#include <cstdint>
#include <vector>

#include "src/core/heap_kind.h"
#include "src/core/tenant_traits.h"
#include "src/offload/routing.h"

namespace ngx {

// Where MakeNgxSystem places shard server cores (and with them the shard's
// mailbox lines, which is what the machine model prices).
enum class PlacementKind {
  // Shards occupy the machine's last num_shards cores (the historical
  // default).
  kContiguous,
  // Each shard's server core is picked inside the cluster holding the
  // majority of the clients it serves under static_by_client routing
  // (requires MachineConfig::cluster_cores > 0), falling back to the lowest
  // free core when the cluster is fully occupied by clients.
  kPerCluster,
};

// Async ring slots per (client, shard) channel MakeNgxSystem builds; a
// free_batch (global or per tenant) must fit in one ring.
inline constexpr std::uint32_t kNgxRingCapacity = 64;

// Heap geometry every shard shares: page-granular 64-KiB spans (reuse
// locality; also the unit of span ownership) and size classes up to 32 KiB,
// above which a request maps a region of its own.
inline constexpr std::uint64_t kNgxSpanBytes = 64 * 1024;
inline constexpr std::uint64_t kNgxSmallMax = 32 * 1024;

struct NgxConfig {
  // Run malloc/free on a dedicated core via the offload engine. When false,
  // the allocator runs inline on the application cores (MMT-style ablation).
  bool offload = true;

  // Section 3.1.1's provisioning granularity: how many allocator shards the
  // offload fabric runs, each with its own server core, heap partition and
  // per-(client, shard) channels. 1 = the paper's single-room prototype.
  int num_shards = 1;

  // How mallocs pick a shard (frees always return to the owning shard).
  RoutingKind routing = RoutingKind::kStaticByClient;

  // Frees ride the fire-and-forget ring instead of a round trip.
  bool async_free = true;

  // Which layout backs every shard's server heap (ServerHeapConfig::
  // heap_kind): Figure 2's segregated layout (kSegment, the segment + slab
  // heap of DESIGN.md §10 with 16-bit side tables, the default) or its
  // aggregated one (kAggregated, intrusive next pointers in the blocks
  // themselves).
  HeapKind heap_kind = HeapKind::kSegment;

  // Segment heap only (heap_kind = kSegment): fully-recycled segments kept
  // mapped in each shard's empty pool. 0 unmaps immediately, which is what
  // lets the span directory mark a donated segment kRecycled and flow it
  // home through kReturnSpan (ServerHeapConfig::empty_segment_retain).
  std::uint32_t empty_segment_retain = 8;

  // Section 3.1.3: the dedicated core serializes every operation, so the
  // heap's internal lock atomics can be removed. Set to false to keep them
  // (ablation), or when running non-offloaded with multiple threads.
  bool remove_atomics = true;

  // Back spans with 2 MiB hugepages (TLB reach).
  bool hugepage_spans = true;

  // Hugepage span packing (DESIGN.md §16): carve 32 contiguous 64-KiB spans
  // out of each 2-MiB hugepage map instead of aligning every span up to a
  // whole hugepage. The donation grant unit shrinks back to one span and
  // small heap_window budgets become honest (no 31/32 map waste). Requires
  // hugepage_spans; false (the default) keeps the historical
  // one-span-per-hugepage maps bit-identical.
  bool hugepage_packing = false;

  // Hugepage-backed fabric metadata (DESIGN.md §16): back the per-(client,
  // shard) channel blocks (whose rings also hold staged free batches), the
  // stash cache lines and the server heaps' metadata windows with
  // PageKind::kHuge2M mappings so client-side acquire-reads and server-side
  // carve walks stop taking 4-KiB dTLB walks -- the paper's Table-1 dTLB
  // argument carried into the fabric's own structures. False (the default)
  // keeps every metadata region on 4-KiB pages, bit-identical to pre-knob
  // builds.
  bool hugepage_metadata = false;

  // Section 3.3.2: server-side run prediction + batch preallocation into a
  // per-client stash.
  bool prediction = false;
  std::uint32_t max_predict_batch = 16;
  std::uint32_t stash_capacity = 32;

  // Pipelined stash refills (DESIGN.md §9): the (core, class) stash becomes
  // two halves with a seqlock-style publish word. When the active half drains
  // to stash_refill_mark entries, the client posts a non-blocking
  // kRefillStash on the async ring and keeps popping; the server fills the
  // INACTIVE half during its drain window and publishes with one
  // release-store, so the refill overlaps application work instead of
  // stalling it the way the sync kMallocBatch round trip does. Requires
  // offload, prediction and stash_refill_mark > 0 (a mark of 0 aborts at
  // construction); stash_pipeline = false is the one way to turn it off, and
  // the sim is then bit-identical to pre-pipeline builds.
  bool stash_pipeline = false;
  std::uint32_t stash_refill_mark = 4;

  // Periodic watermark timer (DESIGN.md §8): with span_low_mark set, every
  // shard's WatermarkTick fires each time virtual time passes another period
  // of this many cycles on its server core -- the tick path of quiet shards,
  // which have no drains to hook -- so a shard's background rebalancing
  // waits at most one period. Must be nonzero when span_low_mark is.
  std::uint64_t watermark_timer_cycles = 50000;

  // Elastic heap fabric (span-granular ownership; see DESIGN.md §7).
  // Remote frees per ring doorbell: each free is stored straight into its
  // (client, shard) ring and every `free_batch`-th publishes the batch with
  // one head release-store, which kicks the shard's background drain. 1 =
  // the unbatched path, one doorbell per free and no kick. Must not exceed
  // kNgxRingCapacity.
  std::uint32_t free_batch = 1;
  // A shard whose partition runs dry requests whole free spans from the
  // donor with the most free spans via OffloadOp::kDonateSpan (needs
  // offload and num_shards > 1 to do anything).
  bool span_donation = false;
  // Proactive watermark rebalancing (DESIGN.md §8): each shard checks its
  // free-span count after every drain and on every watermark timer tick.
  // Below span_low_mark it pulls a refill from the best-stocked donor
  // (OffloadOp::kRequestSpans); above span_high_mark it first returns
  // fully-recycled away spans to their home shard (kReturnSpan) and
  // otherwise offers surplus to a shard sitting below its low mark
  // (kOfferSpans). 0 = disabled (donation stays purely reactive and the sim
  // is bit-identical to span_low_mark-less builds). Requires span_donation
  // and a nonzero watermark_timer_cycles; span_high_mark must exceed
  // span_low_mark.
  std::uint64_t span_low_mark = 0;
  std::uint64_t span_high_mark = 0;
  // Adaptive traffic-matrix routing + elastic allocator-core fleet
  // (DESIGN.md §14). When true the fabric tracks a host-side client x shard
  // op matrix; every epoch_cycles cycles of the first server core's clock an
  // epoch controller (a) hands the matrix to the routing policy's Observe
  // hook (the `adaptive` policy re-packs client home shards with
  // hysteresis), and (b) resizes the fleet: a shard whose epoch op count
  // falls below park_threshold_ops drains -- its recycled granted spans are
  // returned home via the span protocol -- and parks, releasing its core
  // from the malloc path; queue-depth pressure wakes parked shards. False
  // (the default) registers no hooks and no tracking: bit-identical to
  // pre-adaptive builds regardless of the other fleet knobs. The §3.1.1
  // break-even economics: an allocator core only earns its room while its op
  // rate covers its cost.
  bool adaptive_routing = false;
  // Epoch length in server-core cycles (the controller rides the same timer
  // tick mechanism as watermark_timer_cycles). Ignored unless
  // adaptive_routing is set.
  std::uint64_t epoch_cycles = 100000;
  // Break-even threshold: at each epoch close, park the coldest active
  // shard whose op count is below this -- at most one per epoch, and never
  // the last active shard (0 = never park; routing still adapts).
  std::uint64_t park_threshold_ops = 0;
  // Queue-depth pressure that wakes the lowest-id parked shard: either a
  // parked shard's own backlog or the busiest active shard's depth reaching
  // this many entries.
  std::uint64_t wake_queue_depth = 16;
  // Per-tenant traits (DESIGN.md §15): named contracts binding client cores
  // to preset/override knobs -- stash capacity and refill mark, free_batch,
  // watermark spans and cluster placement --
  // resolved at registration instead of every tenant riding the global
  // values above. Empty (the default) keeps the single implicit tenant and
  // is bit-identical to pre-traits builds; so is a list whose every entry
  // inherits everything.
  std::vector<TenantSpec> tenants;
  // QoS lanes where tenants meet (DESIGN.md §15): when > 0, sync-bound
  // drains serve latency-lane rings first, and a bulk-lane tenant's eager
  // drains are admitted at most lane_quantum entries per window, bounding
  // how far a free batch can run the server clock ahead of a latency
  // tenant's next sync request. 0 (the default) = lanes off: the
  // drain-everything admission, bit-identical whatever the tenant lanes say.
  std::uint32_t lane_quantum = 0;

  // Server-core placement policy used by MakeNgxSystem's placed overload.
  PlacementKind placement = PlacementKind::kContiguous;
  // Total heap window carved into shard slices. 0 = the full kHeapWindow;
  // tests and benches shrink it so partition exhaustion is reachable.
  std::uint64_t heap_window = 0;

  static NgxConfig PaperPrototype() {
    // The 4.2 software prototype: offloaded, synchronous malloc, async free,
    // segregated metadata, no prediction.
    return NgxConfig{};
  }
};

}  // namespace ngx

#endif  // NGX_SRC_CORE_NEXTGEN_CONFIG_H_
