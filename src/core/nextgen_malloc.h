// NextGen-Malloc: the paper's contribution.
//
// The allocator has two halves:
//  * A client stub implementing the Allocator interface on application
//    cores. Malloc is a synchronous mailbox round trip (Code 1); Free rides
//    the async ring (Section 3.1.2: "the entire free phase is not on the
//    critical path"). With prediction enabled, a per-core stash absorbs
//    same-class allocation runs without any round trip (Section 3.3.2).
//    With config.free_batch > 1, each remote free is stored straight into
//    its (client, shard) ring and every free_batch-th publishes the batch
//    with one doorbell; the shard drains it in idle windows that end when
//    a sync request is due.
//  * N server shards behind an OffloadFabric (Section 3.1.1's provisioning
//    granularity made configurable): each shard owns a dedicated core and a
//    disjoint ServerHeap partition whose metadata never enters the
//    application cores' caches (Section 3.1.2), with its lock atomics
//    removed (Section 3.1.3). Mallocs go to the client's home shard (the
//    fabric's Router); frees and UsableSize always return to the shard that
//    owns the block's heap partition.
//
// NgxAllocator is the data plane: the client front end and the server
// request dispatch. Which shard owns which spans, and which shards serve, is
// the ControlPlane's (control_plane.h), present on multi-shard fabrics.
//
// With config.stash_pipeline (DESIGN.md §9), each (core, class) stash splits
// into two single-cache-line halves whose header word doubles as a
// seqlock-style publish word: when the active half drains to
// stash_refill_mark entries the client posts a non-blocking kRefillStash on
// the async ring and keeps allocating; the serving shard fills the INACTIVE
// half on its own clock -- hottest block on top -- and publishes the whole
// batch with one release-store of the header. The client flips halves only
// when the active one runs dry, paying one line transfer per refill batch --
// and a stall only if it outran the server. Frees of small blocks recycle
// straight into the active half after a one-load local classification
// (ServerHeap::ClassifyForRecycle), so in steady state blocks bounce between
// the app and its own stash at depth-1 LIFO and neither the ring nor the
// server sees them; a free that finds the active half full rides the ring.
// The sync kMallocBatch round trip remains as the cold path.
//
// Set config.offload = false for the MMT-style inline ablation: the same
// heap runs on the calling core (the lock must then be kept when several
// threads share it). config.num_shards = 1 reproduces the paper's 4.2
// prototype exactly.
#ifndef NGX_SRC_CORE_NEXTGEN_MALLOC_H_
#define NGX_SRC_CORE_NEXTGEN_MALLOC_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/alloc/allocator.h"
#include "src/alloc/freelist.h"
#include "src/alloc/size_classes.h"
#include "src/core/control_plane.h"
#include "src/core/nextgen_config.h"
#include "src/core/server_heap.h"
#include "src/core/span_directory.h"
#include "src/offload/offload_fabric.h"
#include "src/offload/prediction.h"
#include "src/telemetry/flight_recorder.h"

namespace ngx {

class NgxAllocator : public Allocator {
 public:
  // `fabric` may be nullptr iff config.offload is false. Every fabric shard's
  // server is bound to this allocator's matching heap partition.
  NgxAllocator(Machine& machine, OffloadFabric* fabric, const NgxConfig& config);
  // Unregisters the recorder's snapshot source; the control plane removes
  // its own hooks (the machine and fabric may outlive the allocator).
  ~NgxAllocator() override;

  // ---- Allocator ----
  std::string_view name() const override { return "nextgen"; }
  Addr Malloc(Env& env, std::uint64_t size) override;
  void Free(Env& env, Addr addr) override;
  std::uint64_t UsableSize(Env& env, Addr addr) override;
  void Flush(Env& env) override;
  // Aggregated over shards, counting what callers saw: a heap attempt that
  // fails inside the server (an inline donation retry, a stash prefill cut
  // short) is neither a malloc nor an OOM; a malloc that returned null is.
  AllocatorStats stats() const override;

  // Server-side dispatch for shard `shard` (called on that shard's core by
  // the fabric through a per-shard OffloadServer adapter).
  std::uint64_t HandleShardRequest(Env& server_env, int shard, int client, OffloadOp op,
                                   std::uint64_t arg);

  // The shard owning `addr`, resolved through the span directory (spans can
  // change hands mid-run via donation; a free issued mid-donation lands at
  // the current owner).
  int ShardOfAddr(Addr addr) const;

  const NgxConfig& config() const { return config_; }
  // Span economy and fleet controller; null unless the fabric has more than
  // one shard.
  const ControlPlane* control() const { return control_.get(); }
  int num_shards() const { return static_cast<int>(heaps_.size()); }
  ServerHeap& heap(int shard = 0) { return *heaps_[static_cast<std::size_t>(shard)]; }
  AllocatorStats shard_stats(int shard) const {
    return heaps_[static_cast<std::size_t>(shard)]->stats();
  }
  std::uint64_t stash_hits() const { return stash_hits_; }
  std::uint64_t sync_mallocs() const { return sync_mallocs_; }

  // ---- Map-waste honesty (DESIGN.md §16) ----
  // Summed over every shard's span provider: bytes the providers actually
  // mapped vs bytes the heaps asked for (4-KiB granular). Without packing,
  // each hugepage-backed 64-KiB span map charges a whole 2 MiB, so waste is
  // 31/32 of the span footprint; with packing it collapses to the partially
  // filled frontier frames. Host-side observation only.
  std::uint64_t map_mapped_bytes() const;
  std::uint64_t map_requested_bytes() const;
  std::uint64_t map_waste_bytes() const {
    const std::uint64_t mapped = map_mapped_bytes();
    const std::uint64_t req = map_requested_bytes();
    return mapped > req ? mapped - req : 0;
  }
  // Non-null iff config.hugepage_packing: the fabric-wide frame refcounts.
  const HugepageLedger* hugepage_ledger() const { return hugepage_ledger_.get(); }

  // Stash pipeline observability (config.stash_pipeline; DESIGN.md §9).
  bool stash_pipelined() const { return config_.stash_pipeline; }
  // Background kRefillStash fills served / halves flipped by clients.
  std::uint64_t stash_refills() const { return stash_refills_; }
  std::uint64_t stash_flips() const { return stash_flips_; }
  std::uint64_t refill_blocks() const { return refill_blocks_; }
  // Server fill cycles hidden behind client work (fill duration minus any
  // client stall waiting on the publish), and flips that DID stall because
  // the client drained the active half before the server published.
  std::uint64_t refill_overlap_cycles() const { return refill_overlap_cycles_; }
  std::uint64_t stash_starvation_stalls() const { return stash_starvation_stalls_; }
  // Frees recycled straight into the client's active stash half (never
  // reached the ring or the server; see StashRecycle).
  std::uint64_t stash_recycled_frees() const { return recycled_frees_; }
  // Dry-active flips onto a non-empty client-owned inactive half (no refill
  // in flight, no server involvement -- the halves acting as one 14-deep
  // client cache).
  std::uint64_t stash_local_flips() const { return stash_local_flips_; }
  // Live entries in the telemetry alloc-site map (tests assert it drains).
  std::size_t live_alloc_notes() const { return alloc_core_.size(); }

  // Mallocs that failed because the shard's partition was exhausted and
  // donation could not (or was not allowed to) refill it.
  std::uint64_t partition_oom_failures() const { return partition_ooms_; }
  // Remote frees staged in a ring, and the batches that published them (both
  // 0 with free_batch = 1).
  std::uint64_t buffered_frees() const {
    return fabric_ != nullptr ? fabric_->TotalStats().staged_frees : 0;
  }
  std::uint64_t free_flushes() const {
    return fabric_ != nullptr ? fabric_->TotalStats().free_batches : 0;
  }
  // The control plane's books that the repository benchmark's harness
  // reads (null or 0 without a control plane); everything else is reached
  // through control().
  const SpanDirectory* directory() const { return control_ ? &control_->directory() : nullptr; }
  SpanDirectory* directory() { return control_ ? &control_->directory() : nullptr; }
  std::uint64_t rebalance_moves() const { return control_ ? control_->rebalance_moves() : 0; }
  std::uint64_t inline_donation_fallbacks() const {
    return control_ ? control_->inline_donation_fallbacks() : 0;
  }
  std::uint64_t routing_epochs() const { return control_ ? control_->routing_epochs() : 0; }
  std::uint64_t shards_parked() const { return control_ ? control_->shards_parked() : 0; }
  std::uint64_t parked_core_cycles() const {
    return control_ ? control_->parked_core_cycles() : 0;
  }

  // Flight-recorder heap walk (DESIGN.md §13): one HeapShardSnapshot per
  // shard, built from the span directory, each heap's untimed Inspect() and
  // the allocator's host-side fragmentation mirrors. Registered as the
  // recorder's snapshot source at construction; also callable directly for
  // an on-demand end-of-run snapshot.
  HeapSnapshot BuildSnapshot() const;

 private:
  // Binds one fabric shard's OffloadServer callback to (allocator, shard).
  class ShardServer : public OffloadServer {
   public:
    ShardServer(NgxAllocator* owner, int shard) : owner_(owner), shard_(shard) {}
    std::uint64_t HandleRequest(Env& server_env, int client, OffloadOp op,
                                std::uint64_t arg) override {
      return owner_->HandleShardRequest(server_env, shard_, client, op, arg);
    }

   private:
    NgxAllocator* owner_;
    int shard_;
  };

  // The (core, class) stash of the unpipelined path: config.stash_capacity
  // entries.
  IndexStack Stash(int core, std::uint32_t cls) const {
    return IndexStack(stash_base_ + stash_stride_ * static_cast<std::uint32_t>(core) +
                          stash_slot_ * cls,
                      config_.stash_capacity);
  }

  // ---- Stash pipeline (config.stash_pipeline; DESIGN.md §9) ----
  // Host-side per-(core, class) pipeline state. The simulated protocol state
  // is only each half's header word; everything here is the client's (and,
  // for fill_start/publish_time, the server's) private bookkeeping, which
  // real hardware would keep in registers / its own stack.
  struct StashPipe {
    std::uint8_t active = 0;    // half the client pops from
    std::uint8_t filling = 0;   // half the posted refill targets
    bool in_flight = false;     // a kRefillStash is posted but not yet flipped
    std::uint32_t want = 0;     // blocks the posted refill asked for
    // The client's register-resident entry counts, one per half (the
    // thread-cache idiom: counts live in thread-local registers, the stash
    // line holds only block pointers). Authoritative for every half the
    // client owns; for the filling half while a refill is in flight the
    // count is the server's to publish, and the client refreshes this
    // mirror from the acquire-read of the header at flip time. The header
    // word in simulated memory is written only at protocol boundaries
    // (publish, sync seed, flush), never per pop or per recycle.
    std::uint32_t count[2] = {0, 0};
    std::uint64_t expected_seq = 0;  // publish-word value that commits the fill
    std::uint64_t post_time = 0;     // client clock at the doorbell
    std::uint64_t fill_start = 0;    // server clock when the fill began
    std::uint64_t publish_time = 0;  // server clock at the release-store
  };

  // Pipelined slot layout: two halves of ONE cache line each,
  //   [w0: fill_seq<<32 | count][entry 0]...[entry kPipeHalfCap-1]
  // w0 doubles as the seqlock publish word: the server writes the entries,
  // then release-stores w0 with the new sequence and count, so a whole
  // refill batch costs the client exactly one line transfer -- the flip's
  // acquire-read pulls the line every subsequent pop hits. Halves are on
  // disjoint lines, so a server fill of the inactive half never bounces the
  // line the client is popping from (or recycling frees into).
  Addr HalfAddr(int core, std::uint32_t cls, int half) const {
    return stash_base_ + stash_stride_ * static_cast<std::uint64_t>(core) +
           stash_slot_ * cls + stash_half_bytes_ * static_cast<std::uint64_t>(half);
  }
  StashPipe& Pipe(int core, std::uint32_t cls) {
    return pipes_[static_cast<std::size_t>(core) * classes_.num_classes() + cls];
  }
  // Pops the top of the ACTIVE half: ONE timed load (the top entry; the
  // count lives in the StashPipe register mirror, and the entry load hits
  // the line the flip's acquire already pulled). `remaining` gets the
  // post-pop count.
  bool StashPopActive(Env& env, int core, std::uint32_t cls, Addr* out,
                      std::uint64_t* remaining);
  // Free fast path: pushes a just-freed block of `cls` back onto the ACTIVE
  // half when it has room (pipe_cap_ entries; a full half sends the free to
  // the ring). The block never leaves the client -- no ring entry, no
  // server work, and the next malloc of `cls` reuses it while its data lines
  // are still in this core's cache (depth-1 LIFO, the same reuse locality
  // the synchronous path gets from the server's free stacks).
  bool StashRecycle(Env& env, int core, std::uint32_t cls, Addr addr);

  // Client fast path when the pipeline is on: pop the active half, post a
  // refill at the mark, flip to the published half when the active one runs
  // dry, and fall back to the sync kMallocBatch round trip only when cold.
  Addr PipelinedMalloc(Env& env, std::uint64_t size, std::uint32_t cls, bool rec,
                       std::uint64_t t0);
  // Books a malloc of `size` that `block` from the (core, cls) stash served;
  // with the pipeline on, first posts a refill if `remaining` entries are at
  // the mark.
  Addr StashHit(Env& env, std::uint64_t size, std::uint32_t cls, Addr block,
                std::uint64_t remaining, bool rec, std::uint64_t t0);
  // The synchronous round trip: routes the malloc to the client's home
  // shard, sends `op` (kMalloc, or kMallocBatch, whose reply also stocks the
  // stash) and returns the shard's answer.
  Addr SyncMalloc(Env& env, std::uint64_t size, OffloadOp op);
  // Closes a client malloc served by `path` (its latency histogram): records
  // the latency since `t0` and the alloc site when `rec`; returns `a`.
  Addr FinishMalloc(Env& env, Histogram* path, Addr a, bool rec, std::uint64_t t0);
  // Posts kRefillStash for (core, cls) if the active half just drained to
  // `remaining` <= the refill mark, no refill is in flight, and the
  // predictor is warm.
  void MaybePostRefill(Env& env, std::uint32_t cls, std::uint64_t remaining);
  // Consumes the published fill: waits out any remaining server time,
  // acquire-reads the filled half's header (the one guaranteed line
  // transfer, which also warms the line every subsequent pop hits), swaps
  // halves.
  void FlipStash(Env& env, int core, std::uint32_t cls);
  // Server side of OffloadOp::kRefillStash: fill the client's inactive half
  // and publish with a release-store of the expected sequence number.
  std::uint64_t HandleRefillStash(Env& server_env, int shard, int client,
                                  std::uint64_t arg);

  // Carves `size` from `shard`'s partition on its server core; a dry
  // partition falls back to the control plane's inline donation.
  Addr ServerMalloc(Env& server_env, int shard, std::uint64_t size);

  // Lazily binds metric handles; returns whether telemetry is recording.
  bool Recording();
  void BindInstruments();
  // Flight-recorder handle, or null when the recorder is off.
  FlightRecorder* Recorder() const {
    Telemetry& tel = machine_->telemetry();
    return tel.recording() ? &tel.recorder() : nullptr;
  }
  // Traffic-matrix + fragmentation-mirror accounting for one routed malloc
  // (no-op when the recorder is off).
  void NoteMallocTraffic(int client, int shard, std::uint64_t size);
  // The shard whose refill/seed last stocked (core, cls)'s stash -- where a
  // stash-served malloc's blocks actually came from.
  std::int16_t& StashShard(int core, std::uint32_t cls) {
    return stash_shard_[static_cast<std::size_t>(core) * classes_.num_classes() + cls];
  }
  // Remembers which core obtained a live block (telemetry-only bookkeeping,
  // host side; used to classify frees as same-core vs cross-core).
  void NoteAlloc(Addr addr, int core) {
    if (addr != kNullAddr) {
      alloc_core_[addr] = core;
    }
  }
  // Drops `addr` from the alloc-site map; counts locality only when `rec`.
  // Called whenever the map is non-empty -- not just while recording -- so
  // blocks noted while telemetry was on cannot linger after it is disabled
  // (the map must drain to empty once every live block is freed).
  void ClassifyFree(Addr addr, int core, bool rec);

  Machine* machine_;
  NgxConfig config_;
  SizeClasses classes_;  // client-side class computation for the stash
  std::vector<std::unique_ptr<ServerHeap>> heaps_;  // one partition per shard
  std::vector<std::unique_ptr<ShardServer>> shard_servers_;
  // Fabric-wide hugepage frame refcounts (config.hugepage_packing); shared
  // by every shard's span provider so donated spans stay on backed frames.
  std::unique_ptr<HugepageLedger> hugepage_ledger_;
  // Declared after heaps_: destroyed first, it clears the observers it set
  // on their span providers.
  std::unique_ptr<ControlPlane> control_;
  std::uint64_t partition_ooms_ = 0;
  // Sizes of the mallocs whose caller got null (the heaps count only the
  // carves that succeeded).
  std::uint64_t oom_bytes_ = 0;
  OffloadFabric* fabric_;
  std::optional<AllocationPredictor> predictor_;
  std::unique_ptr<PageProvider> stash_provider_;
  Addr stash_base_ = 0;
  std::uint64_t stash_stride_ = 0;
  std::uint64_t stash_slot_ = 0;
  std::uint64_t stash_hits_ = 0;
  std::uint64_t sync_mallocs_ = 0;
  std::uint64_t stash_half_bytes_ = 0;  // one cache line per half
  // Entries used per pipelined half, min(stash_capacity, kPipeHalfCap); 0
  // without the pipeline.
  std::uint32_t pipe_cap_ = 0;
  std::vector<StashPipe> pipes_;     // (core, class) pipeline state
  std::uint64_t stash_refills_ = 0;
  std::uint64_t refill_blocks_ = 0;
  std::uint64_t stash_flips_ = 0;
  std::uint64_t refill_overlap_cycles_ = 0;
  std::uint64_t stash_starvation_stalls_ = 0;
  std::uint64_t recycled_frees_ = 0;
  std::uint64_t stash_local_flips_ = 0;
  // Flight-recorder host mirrors. stash_shard_ tracks which shard last
  // stocked each (core, class) stash; the frag mirrors accumulate requested
  // vs carved block bytes per shard for the internal-fragmentation report
  // (only advanced while the recorder is on).
  std::vector<std::int16_t> stash_shard_;      // (core, class), default 0
  std::vector<std::uint64_t> frag_req_bytes_;    // per shard
  std::vector<std::uint64_t> frag_block_bytes_;  // per shard

  // Telemetry handles (host-side observation only; see src/telemetry/).
  bool instruments_bound_ = false;
  Histogram* h_malloc_stash_ = nullptr;
  Histogram* h_malloc_sync_ = nullptr;
  Histogram* h_malloc_inline_ = nullptr;
  Histogram* h_free_ = nullptr;
  Counter* c_free_local_ = nullptr;
  Counter* c_free_remote_ = nullptr;
  Counter* c_free_unknown_ = nullptr;
  Histogram* h_refill_batch_ = nullptr;   // blocks per background refill
  std::unordered_map<Addr, int> alloc_core_;  // live block -> obtaining core
};

// Convenience builder: creates the offload fabric (config.num_shards server
// cores) plus the allocator and wires them together.
struct NgxSystem {
  std::unique_ptr<OffloadFabric> fabric;  // null when !config.offload
  std::unique_ptr<NgxAllocator> allocator;
};

// Shards occupy the explicit core list (size must equal config.num_shards).
NgxSystem MakeNgxSystem(Machine& machine, const NgxConfig& config,
                        std::vector<int> server_cores);

// Cluster-aware server cores for the given application cores: for each
// shard, the lowest free core inside the cluster (MachineConfig::
// cluster_cores, which must be set) holding the majority of the clients
// static_by_client routing sends to it (ties to the lowest cluster; lowest
// free core anywhere when that cluster has no core to spare). Pass the
// result to MakeNgxSystem; its default puts the shards on the machine's last
// num_shards cores instead.
std::vector<int> ChooseServerCores(const Machine& machine, const NgxConfig& config,
                                   const std::vector<int>& client_cores);

// Shards occupy cores first_server_core .. first_server_core+num_shards-1;
// -1 places them on the machine's last num_shards cores. With num_shards = 1
// this is the original single-server signature, unchanged for all callers.
NgxSystem MakeNgxSystem(Machine& machine, const NgxConfig& config,
                        int first_server_core = -1);

}  // namespace ngx

#endif  // NGX_SRC_CORE_NEXTGEN_MALLOC_H_
