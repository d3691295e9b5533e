#include "src/core/nextgen_malloc.h"

#include <algorithm>
#include <cassert>

#include "src/alloc/layout.h"
#include "src/sim/check.h"

namespace ngx {

namespace {

// RAII client-op scope for the flight recorder: the outermost pair on a core
// brackets one user-facing allocator op, so its wall cycles land in the
// kClientOp attribution bucket and wait sites know they are inside an op.
// Null recorder = recorder off = zero work.
class ClientOpScope {
 public:
  ClientOpScope(FlightRecorder* rec, Env& env) : rec_(rec), env_(&env) {
    if (rec_ != nullptr) {
      rec_->BeginClientOp(env_->core_id(), env_->now());
    }
  }
  ~ClientOpScope() {
    if (rec_ != nullptr) {
      rec_->EndClientOp(env_->core_id(), env_->now());
    }
  }
  ClientOpScope(const ClientOpScope&) = delete;
  ClientOpScope& operator=(const ClientOpScope&) = delete;

 private:
  FlightRecorder* rec_;
  Env* env_;
};

}  // namespace

NgxAllocator::NgxAllocator(Machine& machine, OffloadFabric* fabric, const NgxConfig& config)
    : machine_(&machine),
      config_(config),
      classes_(kNgxSmallMax),
      fabric_(fabric) {
  NGX_CHECK((fabric != nullptr) == config.offload,
            "offloaded allocators need a fabric; inline ones must not have one");
  const int nshards = fabric != nullptr ? fabric->num_shards() : 1;
  NGX_CHECK(fabric == nullptr || nshards == config.num_shards,
            "fabric shard count must match config.num_shards");
  NGX_CHECK(nshards >= 1 && static_cast<std::uint64_t>(nshards) <= kHeapWindow / (1u << 30),
            "shard count out of range for the heap window");
  // Combinations that would otherwise be silently ignored.
  NGX_CHECK(config.routing != RoutingKind::kAdaptive || config.adaptive_routing,
            "routing = adaptive needs adaptive_routing (the epoch controller feeds it)");
  NGX_CHECK(!config.adaptive_routing || config.routing == RoutingKind::kAdaptive,
            "adaptive_routing needs routing = adaptive");
  NGX_CHECK(!config.stash_pipeline || config.prediction,
            "stash_pipeline needs prediction: there is no stash to pipeline");
  NGX_CHECK(!config.stash_pipeline || config.stash_refill_mark > 0,
            "stash_pipeline needs stash_refill_mark > 0; turn the pipeline off with "
            "stash_pipeline = false");
  NGX_CHECK(!config.stash_pipeline || config.stash_capacity > 0,
            "pipelined stash needs a nonzero capacity");
  NGX_CHECK(!config.prediction || config.offload,
            "prediction needs offload: the inline allocator never reads the stash");
  ServerHeapConfig hc;
  hc.heap_kind = config.heap_kind;
  hc.span_bytes = kNgxSpanBytes;
  hc.hugepage_spans = config.hugepage_spans;
  hc.hugepage_metadata = config.hugepage_metadata;
  NGX_CHECK(!config.hugepage_packing || config.hugepage_spans,
            "hugepage_packing packs hugepage spans; enable hugepage_spans");
  // Section 3.1.3: the dedicated core serializes operations, so the lock can
  // go. Inline (non-offloaded) mode keeps it unless explicitly removed.
  hc.use_lock = !config.remove_atomics;
  if (config.hugepage_packing) {
    hugepage_ledger_ = std::make_unique<HugepageLedger>();
  }
  // Shards start from equal disjoint slices of the heap window; the span
  // directory then tracks ownership as donation moves spans between them.
  // config.heap_window shrinks the data window (partition-exhaustion tests);
  // metadata slices keep the full-window stride, since the side tables are
  // sized by span count, not by the data window.
  const std::uint64_t window = config.heap_window ? config.heap_window : kHeapWindow;
  NGX_CHECK(window <= kHeapWindow && window % static_cast<std::uint64_t>(nshards) == 0,
            "heap window must split evenly across shards");
  const std::uint64_t shard_window = window / static_cast<std::uint64_t>(nshards);
  NGX_CHECK(shard_window % kHugePageBytes == 0, "shard slices must stay hugepage aligned");
  const std::uint64_t meta_stride = kHeapWindow / static_cast<std::uint64_t>(nshards);
  NGX_CHECK(!config.hugepage_metadata || meta_stride % kHugePageBytes == 0,
            "hugepage-backed metadata slices must stay hugepage aligned");
  hc.window_bytes = shard_window;
  hc.meta_window_bytes = meta_stride;
  NGX_CHECK(config.span_low_mark == 0 || config.span_donation,
            "watermark rebalancing (span_low_mark) requires span_donation");
  NGX_CHECK(config.span_low_mark == 0 || config.span_high_mark > config.span_low_mark,
            "span_high_mark must exceed span_low_mark");
  NGX_CHECK(config.span_low_mark == 0 || config.watermark_timer_cycles > 0,
            "watermark rebalancing (span_low_mark) needs watermark_timer_cycles > 0");
  heaps_.reserve(static_cast<std::size_t>(nshards));
  shard_servers_.reserve(static_cast<std::size_t>(nshards));
  for (int s = 0; s < nshards; ++s) {
    heaps_.push_back(MakeServerHeap(machine,
                                    kNgxHeapBase + shard_window * static_cast<std::uint64_t>(s),
                                    kNgxMetaBase + meta_stride * static_cast<std::uint64_t>(s),
                                    hc));
    if (hugepage_ledger_ != nullptr) {
      // One ledger for the whole fabric (spans migrate between shard
      // providers); the span provider maps lazily, so attaching here is
      // always before its first Map.
      heaps_.back()->span_provider().set_hugepage_ledger(hugepage_ledger_.get());
    }
    if (fabric != nullptr) {
      shard_servers_.push_back(std::make_unique<ShardServer>(this, s));
      fabric->set_server(s, shard_servers_.back().get());
    }
  }
  NGX_CHECK(config.free_batch >= 1 && config.free_batch <= kNgxRingCapacity,
            "free_batch must fit in one async ring");
  if (nshards > 1) {
    control_ = std::make_unique<ControlPlane>(machine, *fabric, config_, heaps_);
  }
  if (config.prediction) {
    predictor_.emplace(machine.num_cores(), classes_.num_classes(), config.max_predict_batch);
    if (config.stash_pipeline) {
      NGX_CHECK(classes_.num_classes() < (1u << 16),
                "kRefillStash packs the size class into the tagged-ring arg");
      // [half 0][half 1], one 64-byte line each: [seq|count][7 entries]. A
      // refill batch beyond one line would cost a transfer per extra line
      // and hand out ever-colder server blocks, so the line caps the half.
      stash_half_bytes_ = 64;
      stash_slot_ = 2 * stash_half_bytes_;
      pipe_cap_ = std::min(config.stash_capacity, kPipeHalfCap);
      pipes_.assign(static_cast<std::size_t>(machine.num_cores()) * classes_.num_classes(),
                    StashPipe{});
    } else {
      stash_slot_ = AlignUp(IndexStack::FootprintBytes(config.stash_capacity), 64);
    }
    stash_stride_ = AlignUp(stash_slot_ * classes_.num_classes(), kSmallPageBytes);
    stash_provider_ = std::make_unique<PageProvider>(
        kNgxMetaBase + kHeapWindow, kHeapWindow, "ngx-stash");
    stash_base_ = stash_provider_->MapAtStartup(
        machine, stash_stride_ * machine.num_cores(),
        config.hugepage_metadata ? PageKind::kHuge2M : PageKind::kSmall4K);
  }
  if (config.stash_pipeline) {
    // With refills riding the ring instead of piggybacking on sync mallocs,
    // the server's drain windows would shrink to refill kicks only; let the
    // spinning server also pick up a half-full free ring in the background
    // (no client stall) so backpressure stalls stay the rare case.
    fabric_->set_eager_drain_at(kNgxRingCapacity / 2);
  }
  // Flight-recorder wiring (host-side only; inert until the recorder is
  // enabled). The snapshot source lets Machine's periodic cadence and the
  // runner's end-of-run walk reach this allocator's heaps.
  stash_shard_.assign(
      static_cast<std::size_t>(machine.num_cores()) * classes_.num_classes(), 0);
  frag_req_bytes_.assign(static_cast<std::size_t>(nshards), 0);
  frag_block_bytes_.assign(static_cast<std::size_t>(nshards), 0);
  FlightRecorder& recorder = machine.telemetry().recorder();
  recorder.matrix().SetNumShards(nshards);
  recorder.SetSnapshotSource([this] { return BuildSnapshot(); });
}

NgxAllocator::~NgxAllocator() { machine_->telemetry().recorder().ClearSnapshotSource(); }

bool NgxAllocator::Recording() {
  if (!machine_->telemetry().enabled()) {
    return false;
  }
  if (!instruments_bound_) {
    BindInstruments();
  }
  return true;
}

void NgxAllocator::BindInstruments() {
  MetricsRegistry& m = machine_->telemetry().metrics();
  h_malloc_stash_ = &m.GetHistogram("ngx.malloc_latency", {{"alloc", "nextgen"}, {"path", "stash"}});
  h_malloc_sync_ = &m.GetHistogram("ngx.malloc_latency", {{"alloc", "nextgen"}, {"path", "sync"}});
  h_malloc_inline_ =
      &m.GetHistogram("ngx.malloc_latency", {{"alloc", "nextgen"}, {"path", "inline"}});
  const char* free_path = !config_.offload ? "inline" : (config_.async_free ? "async" : "sync");
  h_free_ = &m.GetHistogram("ngx.free_latency", {{"alloc", "nextgen"}, {"path", free_path}});
  c_free_local_ = &m.GetCounter("ngx.frees", {{"alloc", "nextgen"}, {"locality", "local"}});
  c_free_remote_ = &m.GetCounter("ngx.frees", {{"alloc", "nextgen"}, {"locality", "remote"}});
  c_free_unknown_ = &m.GetCounter("ngx.frees", {{"alloc", "nextgen"}, {"locality", "unknown"}});
  h_refill_batch_ = &m.GetHistogram("ngx.stash_refill_batch", {{"alloc", "nextgen"}});
  instruments_bound_ = true;
}

void NgxAllocator::ClassifyFree(Addr addr, int core, bool rec) {
  const auto it = alloc_core_.find(addr);
  if (it == alloc_core_.end()) {
    // Allocated before telemetry was enabled (or stashed and never popped).
    if (rec) {
      c_free_unknown_->Add();
    }
    return;
  }
  if (rec) {
    (it->second == core ? c_free_local_ : c_free_remote_)->Add();
  }
  alloc_core_.erase(it);
}

int NgxAllocator::ShardOfAddr(Addr addr) const {
  // Span-granular lookup: donation moves spans between shards mid-run, so a
  // fixed-slice divide would misroute frees of donated spans.
  return control_ != nullptr ? control_->directory().OwnerOfAddr(addr) : 0;
}

Addr NgxAllocator::Malloc(Env& env, std::uint64_t size) {
  const bool rec = Recording();
  ClientOpScope op_scope(Recorder(), env);
  const std::uint64_t t0 = env.now();
  if (!config_.offload) {
    const Addr a = heaps_[0]->Malloc(env, size);
    if (a == kNullAddr) {
      oom_bytes_ += size;
    }
    NoteMallocTraffic(env.core_id(), 0, size);
    return FinishMalloc(env, h_malloc_inline_, a, rec, t0);
  }
  env.Work(4);  // stub dispatch
  if (config_.prediction && size <= classes_.max_size()) {
    const std::uint32_t cls = classes_.ClassOf(size);
    if (config_.stash_pipeline) {
      return PipelinedMalloc(env, size, cls, rec, t0);
    }
    IndexStack stash = Stash(env.core_id(), cls);
    std::uint64_t block = 0;
    if (stash.Pop(env, &block)) {
      return StashHit(env, size, cls, block, 0, rec, t0);
    }
    return FinishMalloc(env, h_malloc_sync_, SyncMalloc(env, size, OffloadOp::kMallocBatch), rec,
                        t0);
  }
  return FinishMalloc(env, h_malloc_sync_, SyncMalloc(env, size, OffloadOp::kMalloc), rec, t0);
}

Addr NgxAllocator::FinishMalloc(Env& env, Histogram* path, Addr a, bool rec,
                                std::uint64_t t0) {
  if (rec) {
    path->Record(env.now() - t0);
    NoteAlloc(a, env.core_id());
  }
  return a;
}

Addr NgxAllocator::StashHit(Env& env, std::uint64_t size, std::uint32_t cls, Addr block,
                            std::uint64_t remaining, bool rec, std::uint64_t t0) {
  ++stash_hits_;
  if (config_.stash_pipeline) {
    MaybePostRefill(env, cls, remaining);
  }
  NoteMallocTraffic(env.core_id(), StashShard(env.core_id(), cls), size);
  return FinishMalloc(env, h_malloc_stash_, block, rec, t0);
}

Addr NgxAllocator::SyncMalloc(Env& env, std::uint64_t size, OffloadOp op) {
  ++sync_mallocs_;
  const int shard = fabric_->RouteMalloc(env.core_id());
  if (op == OffloadOp::kMallocBatch) {
    // The reply stocks the stash: its later hits came from this shard.
    StashShard(env.core_id(), classes_.ClassOf(size)) = static_cast<std::int16_t>(shard);
  }
  const Addr a = fabric_->SyncRequest(env, shard, op, size);
  NoteMallocTraffic(env.core_id(), shard, size);
  return a;
}

void NgxAllocator::Free(Env& env, Addr addr) {
  if (addr == kNullAddr) {
    return;
  }
  const bool rec = Recording();
  ClientOpScope op_scope(Recorder(), env);
  const std::uint64_t t0 = env.now();
  if (rec || !alloc_core_.empty()) {
    // The map must keep draining even after telemetry is switched off, or
    // blocks noted while it was on would pin entries forever.
    ClassifyFree(addr, env.core_id(), rec);
  }
  if (!config_.offload) {
    heaps_[0]->Free(env, addr);
    if (FlightRecorder* frec = Recorder()) {
      frec->matrix().NoteFree(env.core_id(), 0);
    }
    if (rec) {
      h_free_->Record(env.now() - t0);
    }
    return;
  }
  env.Work(3);
  if (config_.stash_pipeline) {
    // Recycle fast path (DESIGN.md §9): classify the block locally with one
    // load of read-mostly heap metadata and push it straight back onto this
    // core's active stash half. The block never reaches the ring or the
    // server, and the next malloc of its class pops it while its data lines
    // are still warm -- the depth-1 LIFO reuse the synchronous path gets
    // from the server's free stacks, kept without the round trip.
    const int rshard = ShardOfAddr(addr);
    const std::int64_t cls =
        heaps_[static_cast<std::size_t>(rshard)]->ClassifyForRecycle(env, addr);
    if (cls >= 0 &&
        StashRecycle(env, env.core_id(), static_cast<std::uint32_t>(cls), addr)) {
      ++recycled_frees_;
      if (FlightRecorder* frec = Recorder()) {
        frec->matrix().NoteFree(env.core_id(), rshard);
      }
      if (rec) {
        h_free_->Record(env.now() - t0);
      }
      return;
    }
  }
  // A block is always returned to the shard owning its heap partition, no
  // matter which client frees it or where the router sent the malloc.
  const int shard = ShardOfAddr(addr);
  if (FlightRecorder* frec = Recorder()) {
    frec->matrix().NoteFree(env.core_id(), shard);
  }
  if (config_.async_free) {
    if (config_.free_batch > 1) {
      // Staged straight into the ring; every free_batch-th free of this
      // client publishes the batch with one doorbell (DESIGN.md §7).
      fabric_->StageFree(env, shard, addr, config_.free_batch);
    } else {
      fabric_->AsyncRequest(env, shard, OffloadOp::kFree, addr);
    }
  } else {
    fabric_->SyncRequest(env, shard, OffloadOp::kFree, addr);
  }
  if (rec) {
    h_free_->Record(env.now() - t0);
  }
}

bool NgxAllocator::StashPopActive(Env& env, int core, std::uint32_t cls, Addr* out,
                                  std::uint64_t* remaining) {
  StashPipe& pipe = Pipe(core, cls);
  const std::uint32_t count = pipe.count[pipe.active];
  if (count == 0) {
    return false;
  }
  // Entry count-1 sits at base + 8 * count. The count decrement is pure
  // register arithmetic; the header in memory stays whatever the last
  // protocol-boundary write left (nobody reads it while the client owns
  // the half).
  *out = env.Load<std::uint64_t>(HalfAddr(core, cls, pipe.active) + 8 * count);
  pipe.count[pipe.active] = count - 1;
  *remaining = count - 1;
  return true;
}

bool NgxAllocator::StashRecycle(Env& env, int core, std::uint32_t cls, Addr addr) {
  StashPipe& pipe = Pipe(core, cls);
  const std::uint32_t count = pipe.count[pipe.active];
  if (count >= pipe_cap_) {
    return false;  // inventory bounded; the free takes the ring to its shard
  }
  // One timed store -- the entry itself, at the active half's top, where the
  // very next pop of this class returns it (depth-1 LIFO). The count bump is
  // the register mirror.
  env.Store<std::uint64_t>(HalfAddr(core, cls, pipe.active) + 8 * (count + 1), addr);
  pipe.count[pipe.active] = count + 1;
  return true;
}

Addr NgxAllocator::PipelinedMalloc(Env& env, std::uint64_t size, std::uint32_t cls,
                                   bool rec, std::uint64_t t0) {
  const int core = env.core_id();
  StashPipe& pipe = Pipe(core, cls);
  std::uint64_t block = 0;
  std::uint64_t remaining = 0;
  if (StashPopActive(env, core, cls, &block, &remaining)) {
    return StashHit(env, size, cls, block, remaining, rec, t0);
  }
  if (pipe.in_flight) {
    // The active half ran dry with a refill outstanding: consume it and keep
    // popping. The refill may itself have come up empty (partition OOM), in
    // which case we fall through to the sync path below.
    FlipStash(env, core, cls);
  } else if (pipe.count[pipe.active ^ 1] > 0) {
    // Both halves are client-owned and the other one holds recycled frees
    // (or an already-consumed refill's leftovers): flip locally, no server
    // involvement. Together the halves form a 2*kPipeHalfCap-deep client
    // cache; background refills are reserved for true net growth.
    pipe.active ^= 1u;
    ++stash_local_flips_;
  }
  // After a flip the new active half may serve; with no flip it is still
  // the empty one and the pop fails without touching memory.
  if (StashPopActive(env, core, cls, &block, &remaining)) {
    return StashHit(env, size, cls, block, remaining, rec, t0);
  }
  // Cold stream (or a dry refill): the classic synchronous round trip. The
  // server's kMallocBatch seeds the ACTIVE half, and the predictor warms up
  // exactly as in the non-pipelined path until refills take over.
  const Addr a = SyncMalloc(env, size, OffloadOp::kMallocBatch);
  // Refresh the register mirror from the seeded header: one load of the
  // line every subsequent pop of this half hits anyway. (Both halves were
  // empty or the sync path would not have run, so only the count changes.)
  pipe.count[pipe.active] = static_cast<std::uint32_t>(
      env.Load<std::uint64_t>(HalfAddr(core, cls, pipe.active)) & 0xffffffffull);
  return FinishMalloc(env, h_malloc_sync_, a, rec, t0);
}

void NgxAllocator::MaybePostRefill(Env& env, std::uint32_t cls, std::uint64_t remaining) {
  const int core = env.core_id();
  StashPipe& pipe = Pipe(core, cls);
  if (pipe.in_flight || remaining > config_.stash_refill_mark) {
    return;
  }
  if (pipe.count[pipe.active ^ 1] > 0) {
    return;  // client-held blocks remain; they are hotter than any refill
  }
  const std::uint32_t want = predictor_->RefillSize(core, cls, pipe_cap_);
  if (want == 0) {
    return;  // stream too cold; the next miss pays the sync trip and warms it
  }
  predictor_->OnStashRefill(core, cls);
  const int shard = fabric_->RouteMalloc(core);
  StashShard(core, cls) = static_cast<std::int16_t>(shard);
  pipe.in_flight = true;
  pipe.filling = pipe.active ^ 1u;
  pipe.want = want;
  ++pipe.expected_seq;
  pipe.post_time = env.now();
  const std::uint64_t arg = (static_cast<std::uint64_t>(cls) << 24) |
                            (static_cast<std::uint64_t>(want) << 8) |
                            static_cast<std::uint64_t>(pipe.filling);
  // Fire and forget: the server consumes the doorbell and runs the fill on
  // its own clock; the client returns to application work immediately.
  fabric_->AsyncRequestKicked(env, shard, OffloadOp::kRefillStash, arg);
}

void NgxAllocator::FlipStash(Env& env, int core, std::uint32_t cls) {
  StashPipe& pipe = Pipe(core, cls);
  // The eager kick in AsyncRequestKicked already ran the fill, so the
  // server-side times are known; the client just may not have caught up to
  // them yet.
  std::uint64_t stall = 0;
  if (pipe.publish_time > env.now()) {
    // The client drained a whole half faster than the server could fill the
    // other: wait for the publish (the pipeline's only blocking point).
    stall = pipe.publish_time - env.now();
    ++stash_starvation_stalls_;
    if (FlightRecorder* frec = Recorder()) {
      // The client is about to jump to the server's publish point: a wait on
      // server work, attributed like a sync-request spin.
      if (frec->InClientOp(core)) {
        frec->AddCycles(FlightRecorder::kSyncStall, stall);
      }
    }
    machine_->core(core).AdvanceTo(pipe.publish_time);
  }
  // The acquire-read of the filled half's header is the flip's one
  // guaranteed line transfer -- and it pulls the very line every subsequent
  // pop of this half hits, so a whole refill batch moves in that single
  // transfer.
  const std::uint64_t w0 = env.AtomicLoad(HalfAddr(core, cls, pipe.filling));
  NGX_CHECK((w0 >> 32) == (pipe.expected_seq & 0xffffffffull),
            "stash publish word out of protocol order");
  // The acquire is also where the client's register mirror learns how many
  // blocks the server actually delivered.
  pipe.count[pipe.filling] = static_cast<std::uint32_t>(w0 & 0xffffffffull);
  const std::uint64_t fill_span =
      pipe.publish_time > pipe.fill_start ? pipe.publish_time - pipe.fill_start : 0;
  const std::uint64_t hidden = fill_span > stall ? fill_span - stall : 0;
  refill_overlap_cycles_ += hidden;
  pipe.active = pipe.filling;
  pipe.in_flight = false;
  ++stash_flips_;
}

std::uint64_t NgxAllocator::HandleRefillStash(Env& server_env, int shard, int client,
                                              std::uint64_t arg) {
  const std::uint32_t cls = static_cast<std::uint32_t>(arg >> 24);
  const std::uint32_t want = static_cast<std::uint32_t>((arg >> 8) & 0xffff);
  const int half = static_cast<int>(arg & 0xff);
  NGX_CHECK(config_.stash_pipeline && cls < classes_.num_classes(),
            "refill without a pipelined stash");
  StashPipe& pipe = Pipe(client, cls);
  NGX_CHECK(pipe.in_flight && static_cast<int>(pipe.filling) == half && pipe.want == want,
            "kRefillStash out of protocol order");
  NGX_CHECK(want <= kPipeHalfCap, "refill batch cannot exceed one stash line");
  pipe.fill_start = server_env.now();
  const Addr base = HalfAddr(client, cls, half);
  Addr got[kPipeHalfCap];
  std::uint32_t filled = 0;
  while (filled < want) {
    const Addr b = ServerMalloc(server_env, shard, classes_.SizeOf(cls));
    if (b == kNullAddr) {
      break;
    }
    got[filled++] = b;
  }
  // Hottest block on top: got[0] came off the top of the heap's LIFO free
  // stack (the most recently freed block, likeliest still warm in the
  // client's cache), so store it at the TOP of the half -- the client's
  // first pop returns it. (Address-sorting the batch for adjacency was
  // measured: it trades ~2k LLC misses for ~4k dTLB misses and loses.)
  for (std::uint32_t j = 0; j < filled; ++j) {
    server_env.Store<std::uint64_t>(base + 8 * static_cast<std::uint64_t>(filled - j),
                                    got[j]);
  }
  // One release-store of the header commits the whole batch: the client's
  // acquire-read at flip time orders it after every entry store above.
  server_env.AtomicStore(base, ((pipe.expected_seq & 0xffffffffull) << 32) | filled);
  pipe.publish_time = server_env.now();
  ++stash_refills_;
  refill_blocks_ += filled;
  if (Recording()) {
    h_refill_batch_->Record(filled);
    Telemetry& tel = machine_->telemetry();
    if (tel.tracing()) {
      tel.tracer().Complete("stash_refill", server_env.core_id(), pipe.fill_start,
                            server_env.now() - pipe.fill_start);
    }
  }
  return 0;
}

std::uint64_t NgxAllocator::UsableSize(Env& env, Addr addr) {
  ClientOpScope op_scope(Recorder(), env);
  if (!config_.offload) {
    return heaps_[0]->UsableSize(env, addr);
  }
  return fabric_->SyncRequest(env, ShardOfAddr(addr), OffloadOp::kUsableSize, addr);
}

void NgxAllocator::Flush(Env& env) {
  ClientOpScope op_scope(Recorder(), env);
  if (!config_.offload) {
    return;
  }
  // Teardown must not lose staged remote frees: publish every partial batch
  // first (they precede this Flush in program order), then return any
  // stashed blocks so footprint accounting settles. Stashed blocks may have
  // been batched by any shard; each goes back to its owner.
  for (int s = 0; s < fabric_->num_shards(); ++s) {
    fabric_->PublishStaged(env, s);
  }
  if (config_.prediction) {
    for (std::uint32_t cls = 0; cls < classes_.num_classes(); ++cls) {
      std::uint64_t block = 0;
      if (config_.stash_pipeline) {
        // Both halves can hold live blocks (an unconsumed refill sits in the
        // filling half, already published by the eager kick); return them
        // all and retire any outstanding refill. Counts come from the
        // register mirrors for client-owned halves; an in-flight fill's
        // count is the server's until the acquire-read consumes its publish.
        StashPipe& pipe = Pipe(env.core_id(), cls);
        for (int half = 0; half < 2; ++half) {
          const Addr base = HalfAddr(env.core_id(), cls, half);
          std::uint32_t count;
          if (pipe.in_flight && pipe.filling == half) {
            count = static_cast<std::uint32_t>(env.AtomicLoad(base) & 0xffffffffull);
          } else {
            count = pipe.count[half];
          }
          while (count > 0) {
            block = env.Load<std::uint64_t>(base + 8 * count);
            --count;
            fabric_->AsyncRequest(env, ShardOfAddr(block), OffloadOp::kFree, block);
          }
          env.Store<std::uint64_t>(base, 0);
          pipe.count[half] = 0;
        }
        pipe.in_flight = false;
      } else {
        IndexStack stash = Stash(env.core_id(), cls);
        while (stash.Pop(env, &block)) {
          fabric_->AsyncRequest(env, ShardOfAddr(block), OffloadOp::kFree, block);
        }
      }
    }
  }
  for (int s = 0; s < fabric_->num_shards(); ++s) {
    fabric_->SyncRequest(env, s, OffloadOp::kFlush, 0);
  }
}

std::uint64_t NgxAllocator::HandleShardRequest(Env& server_env, int shard, int client,
                                               OffloadOp op, std::uint64_t arg) {
  ServerHeap& heap = *heaps_[static_cast<std::size_t>(shard)];
  switch (op) {
    case OffloadOp::kMalloc:
    case OffloadOp::kMallocBatch: {
      const Addr first = ServerMalloc(server_env, shard, arg);
      if (first == kNullAddr) {
        ++partition_ooms_;
        oom_bytes_ += arg;
      }
      if (first == kNullAddr || op == OffloadOp::kMalloc || !config_.prediction) {
        return first;
      }
      const std::uint32_t cls = classes_.ClassOf(arg);
      std::uint32_t batch = predictor_->OnMallocMiss(client, cls);
      if (config_.stash_pipeline) {
        // The sync path seeds the client's ACTIVE half, which the protocol
        // guarantees is dry (both halves empty, no refill in flight, or the
        // sync trip would not have run) -- so the server fills from slot 1
        // without reading the stale header and stores the plain count (the
        // sync response the client is spinning on orders these stores; the
        // client refreshes its register mirror from the header after the
        // trip).
        const Addr base = HalfAddr(client, cls, Pipe(client, cls).active);
        batch = std::min(batch, pipe_cap_);
        std::uint64_t count = 0;
        for (std::uint32_t i = 0; i < batch; ++i) {
          const Addr b = heap.Malloc(server_env, classes_.SizeOf(cls));
          if (b == kNullAddr) {
            break;
          }
          server_env.Store<std::uint64_t>(base + 8 * (count + 1), b);
          ++count;
        }
        server_env.Store<std::uint64_t>(base, count);
        return first;
      }
      batch = std::min(batch, config_.stash_capacity);
      IndexStack stash = Stash(client, cls);
      for (std::uint32_t i = 0; i < batch; ++i) {
        // Preallocate the class size so any request that maps to `cls` can
        // reuse the block.
        const Addr b = heap.Malloc(server_env, classes_.SizeOf(cls));
        if (b == kNullAddr || !stash.Push(server_env, b)) {
          if (b != kNullAddr) {
            heap.Free(server_env, b);
          }
          break;
        }
      }
      return first;
    }
    case OffloadOp::kFree:
      assert(ShardOfAddr(arg) == shard && "free drained by a non-owning shard");
      heap.Free(server_env, arg);
      return 0;
    case OffloadOp::kUsableSize:
      return heap.UsableSize(server_env, arg);
    case OffloadOp::kFlush:
      return 0;
    case OffloadOp::kDonateSpan:
    case OffloadOp::kRequestSpans:
    case OffloadOp::kOfferSpans:
    case OffloadOp::kReturnSpan:
      return control_->HandleSpanOp(server_env, shard, op, arg);
    case OffloadOp::kRefillStash:
      return HandleRefillStash(server_env, shard, client, arg);
  }
  return 0;
}

Addr NgxAllocator::ServerMalloc(Env& server_env, int shard, std::uint64_t size) {
  const Addr a = heap(shard).Malloc(server_env, size);
  if (a != kNullAddr || control_ == nullptr) {
    return a;
  }
  return control_->MallocWithDonation(server_env, shard, size);
}

void NgxAllocator::NoteMallocTraffic(int client, int shard, std::uint64_t size) {
  FlightRecorder* rec = Recorder();
  if (rec == nullptr) {
    return;
  }
  // The carved block size the request actually consumed, for the
  // internal-fragmentation mirror. Aggregated layouts pay a 16-byte inline
  // header per small block and page-align large regions; the segment heap
  // rounds large regions to whole spans.
  std::int64_t cls = -1;
  std::uint64_t block;
  if (size <= classes_.max_size()) {
    cls = static_cast<std::int64_t>(classes_.ClassOf(size));
    block = classes_.SizeOf(static_cast<std::uint32_t>(cls));
    if (config_.heap_kind == HeapKind::kAggregated) {
      block += 16;
    }
  } else if (config_.heap_kind == HeapKind::kAggregated) {
    block = AlignUp(size, kSmallPageBytes);
  } else {
    block = AlignUp(size, kNgxSpanBytes);
  }
  rec->matrix().NoteMalloc(client, shard, size, cls);
  frag_req_bytes_[static_cast<std::size_t>(shard)] += size;
  frag_block_bytes_[static_cast<std::size_t>(shard)] += block;
}

HeapSnapshot NgxAllocator::BuildSnapshot() const {
  HeapSnapshot snap;
  snap.shards.reserve(heaps_.size());
  for (int s = 0; s < num_shards(); ++s) {
    HeapShardSnapshot sh;
    sh.shard = s;
    if (const SpanDirectory* d = directory()) {
      sh.owned_spans = d->owned_spans(s);
      sh.free_spans = d->free_spans(s);
      sh.recycled_spans = d->recycled_spans(s);
      sh.granted_spans = d->granted_spans(s);
      sh.away_spans = d->away_spans(s);
    }
    sh.heap = heaps_[static_cast<std::size_t>(s)]->Inspect();
    const HeapOccupancy& in = sh.heap;
    const std::uint64_t req = frag_req_bytes_[static_cast<std::size_t>(s)];
    const std::uint64_t blk = frag_block_bytes_[static_cast<std::size_t>(s)];
    if (blk > 0 && req <= blk) {
      sh.internal_frag_pct =
          100.0 * (1.0 - static_cast<double>(req) / static_cast<double>(blk));
    }
    if (in.data_mapped_bytes > 0 && in.bytes_live <= in.data_mapped_bytes) {
      sh.external_frag_pct =
          100.0 * (1.0 - static_cast<double>(in.bytes_live) /
                             static_cast<double>(in.data_mapped_bytes));
    }
    snap.shards.push_back(std::move(sh));
  }
  return snap;
}

AllocatorStats NgxAllocator::stats() const {
  AllocatorStats total;
  for (const auto& heap : heaps_) {
    const AllocatorStats h = heap->stats();
    total.mallocs += h.mallocs - h.oom_failures;  // carves that succeeded
    total.frees += h.frees;
    total.bytes_requested += h.bytes_requested;
    total.bytes_live += h.bytes_live;
    total.mapped_bytes += h.mapped_bytes;
    total.mmap_calls += h.mmap_calls;
    total.munmap_calls += h.munmap_calls;
    total.oom_failures += h.oom_failures;
  }
  // Offloaded, a failed heap attempt is the caller's only when the malloc
  // returned null (a partition OOM); inline donation retries and stash
  // prefills cut short stay inside the server, in mallocs and in bytes.
  // Inline, every heap call is a caller's malloc.
  if (config_.offload) {
    total.oom_failures = partition_ooms_;
  }
  total.mallocs += total.oom_failures;
  total.bytes_requested += oom_bytes_;
  return total;
}

std::uint64_t NgxAllocator::map_mapped_bytes() const {
  std::uint64_t total = 0;
  for (const auto& h : heaps_) {
    total += const_cast<ServerHeap&>(*h).span_provider().mapped_bytes();
  }
  return total;
}

std::uint64_t NgxAllocator::map_requested_bytes() const {
  std::uint64_t total = 0;
  for (const auto& h : heaps_) {
    total += const_cast<ServerHeap&>(*h).span_provider().requested_bytes();
  }
  return total;
}

NgxSystem MakeNgxSystem(Machine& machine, const NgxConfig& config,
                        std::vector<int> server_cores) {
  NgxSystem sys;
  if (config.offload) {
    NGX_CHECK(static_cast<int>(server_cores.size()) == config.num_shards,
              "server core list size must equal config.num_shards");
    sys.fabric = std::make_unique<OffloadFabric>(machine, std::move(server_cores),
                                                 kChannelBase, kNgxRingCapacity);
    machine.address_map().Add(
        Region{kChannelBase,
               OffloadFabric::ChannelRegionBytes(machine, config.num_shards),
               config.hugepage_metadata ? PageKind::kHuge2M : PageKind::kSmall4K,
               "channel"});
    sys.allocator = std::make_unique<NgxAllocator>(machine, sys.fabric.get(), config);
  } else {
    sys.allocator = std::make_unique<NgxAllocator>(machine, nullptr, config);
  }
  return sys;
}

std::vector<int> ChooseServerCores(const Machine& machine, const NgxConfig& config,
                                   const std::vector<int>& client_cores) {
  NGX_CHECK(config.offload, "server-core placement needs the offload fabric");
  const int ncores = machine.num_cores();
  std::vector<bool> taken(static_cast<std::size_t>(ncores), false);
  for (const int c : client_cores) {
    NGX_CHECK(c >= 0 && c < ncores, "client core out of range");
    taken[static_cast<std::size_t>(c)] = true;
  }
  const int k = machine.config().cluster_cores;
  NGX_CHECK(k > 0, "cluster-aware placement needs MachineConfig::cluster_cores");
  const int nclusters = (ncores + k - 1) / k;
  std::vector<int> cores;
  cores.reserve(static_cast<std::size_t>(config.num_shards));
  for (int s = 0; s < config.num_shards; ++s) {
    // The clients static_by_client routing sends to shard s, bucketed by
    // cluster; majority wins, ties to the lower cluster.
    std::vector<int> votes(static_cast<std::size_t>(nclusters), 0);
    for (const int c : client_cores) {
      if (c % config.num_shards == s) {
        ++votes[static_cast<std::size_t>(c / k)];
      }
    }
    int cluster = 0;
    for (int j = 1; j < nclusters; ++j) {
      if (votes[static_cast<std::size_t>(j)] > votes[static_cast<std::size_t>(cluster)]) {
        cluster = j;
      }
    }
    int chosen = -1;
    for (int c = cluster * k; c < std::min((cluster + 1) * k, ncores); ++c) {
      if (!taken[static_cast<std::size_t>(c)]) {
        chosen = c;
        break;
      }
    }
    if (chosen < 0) {  // cluster fully occupied: lowest free core anywhere
      for (int c = 0; c < ncores; ++c) {
        if (!taken[static_cast<std::size_t>(c)]) {
          chosen = c;
          break;
        }
      }
    }
    NGX_CHECK(chosen >= 0, "not enough free cores for the shard servers");
    taken[static_cast<std::size_t>(chosen)] = true;
    cores.push_back(chosen);
  }
  return cores;
}

NgxSystem MakeNgxSystem(Machine& machine, const NgxConfig& config, int first_server_core) {
  if (!config.offload) {
    return MakeNgxSystem(machine, config, std::vector<int>{});
  }
  NGX_CHECK(config.num_shards >= 1 && config.num_shards < machine.num_cores(),
            "need at least one application core beside the shard cores");
  if (first_server_core < 0) {
    first_server_core = machine.num_cores() - config.num_shards;
  }
  std::vector<int> cores;
  cores.reserve(static_cast<std::size_t>(config.num_shards));
  for (int s = 0; s < config.num_shards; ++s) {
    cores.push_back(first_server_core + s);
  }
  return MakeNgxSystem(machine, config, std::move(cores));
}

}  // namespace ngx
