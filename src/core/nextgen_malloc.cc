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
      classes_(32 * 1024),
      fabric_(fabric) {
  NGX_CHECK((fabric != nullptr) == config.offload,
            "offloaded allocators need a fabric; inline ones must not have one");
  const int nshards = fabric != nullptr ? fabric->num_shards() : 1;
  NGX_CHECK(fabric == nullptr || nshards == config.num_shards,
            "fabric shard count must match config.num_shards");
  NGX_CHECK(nshards >= 1 && static_cast<std::uint64_t>(nshards) <= kHeapWindow / (1u << 30),
            "shard count out of range for the heap window");
  ServerHeapConfig hc;
  hc.heap_kind = config.heap_kind;
  hc.span_bytes = 64 * 1024;  // page-granular spans: reuse locality
  hc.hugepage_spans = config.hugepage_spans;
  hc.hugepage_metadata = config.hugepage_metadata;
  NGX_CHECK(!config.hugepage_packing || config.hugepage_spans,
            "hugepage_packing packs hugepage spans; enable hugepage_spans");
  hc.empty_segment_retain = config.empty_segment_retain;
  // Section 3.1.3: the dedicated core serializes operations, so the lock can
  // go. Inline (non-offloaded) mode keeps it unless explicitly removed.
  hc.use_lock = !config.remove_atomics;
  span_bytes_ = hc.span_bytes;
  // Spans are donated in whole map units: a 2 MiB-backed span grant must be
  // 2 MiB-sized and -aligned or the recipient's provider cannot map it --
  // unless packing is on, in which case maps are span-granular again (the
  // shared hugepage ledger keeps frames straddling a donation boundary
  // backed) and the grant unit shrinks back to one span.
  const std::uint64_t page = (config.hugepage_spans && !config.hugepage_packing)
                                 ? kHugePageBytes
                                 : kSmallPageBytes;
  grant_unit_spans_ = AlignUp(span_bytes_, page) / span_bytes_;
  grant_align_ = std::max(span_bytes_, page);
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
  shard_window_ = window / static_cast<std::uint64_t>(nshards);
  NGX_CHECK(shard_window_ % kHugePageBytes == 0,
            "shard slices must stay hugepage aligned");
  const std::uint64_t meta_stride = kHeapWindow / static_cast<std::uint64_t>(nshards);
  NGX_CHECK(!config.hugepage_metadata || meta_stride % kHugePageBytes == 0,
            "hugepage-backed metadata slices must stay hugepage aligned");
  hc.window_bytes = shard_window_;
  hc.meta_window_bytes = meta_stride;
  if (nshards > 1) {
    directory_ = std::make_unique<SpanDirectory>(kNgxHeapBase, window, span_bytes_, nshards);
  }
  donation_ = config.span_donation && fabric != nullptr && nshards > 1;
  NGX_CHECK(!donation_ || nshards <= 256,
            "kDonateSpan packs the requester shard into 8 bits");
  NGX_CHECK(config.span_low_mark == 0 || config.span_donation,
            "watermark rebalancing (span_low_mark) requires span_donation");
  NGX_CHECK(config.span_low_mark == 0 || config.span_high_mark > config.span_low_mark,
            "span_high_mark must exceed span_low_mark");
  NGX_CHECK(config.span_low_mark == 0 || config.watermark_timer_cycles > 0,
            "watermark rebalancing (span_low_mark) needs watermark_timer_cycles > 0");
  rebalance_ = donation_ && config.span_low_mark > 0;
  // Per-tenant traits (DESIGN.md §15): resolve the tenant list into per-core
  // effective knobs and per-shard watermark contracts before anything
  // is sized or constructed from them. With config.tenants empty this fills
  // every vector with the global values -- all downstream paths then compute
  // byte-identically to pre-traits builds.
  ResolveTenants(machine, nshards, fabric != nullptr ? &fabric->server_cores() : nullptr);
  heaps_.reserve(static_cast<std::size_t>(nshards));
  shard_servers_.reserve(static_cast<std::size_t>(nshards));
  for (int s = 0; s < nshards; ++s) {
    heaps_.push_back(MakeServerHeap(machine,
                                    kNgxHeapBase + shard_window_ * static_cast<std::uint64_t>(s),
                                    kNgxMetaBase + meta_stride * static_cast<std::uint64_t>(s),
                                    hc));
    if (hugepage_ledger_ != nullptr) {
      // One ledger for the whole fabric (spans migrate between shard
      // providers); the span provider maps lazily, so attaching here is
      // always before its first Map.
      heaps_.back()->span_provider().set_hugepage_ledger(hugepage_ledger_.get());
    }
    if (directory_ != nullptr) {
      // Host-side bookkeeping mirror of this shard's data mappings; the
      // observer must never touch simulated state.
      heaps_.back()->span_provider().set_observer(
          [this, s](Addr addr, std::uint64_t bytes, bool is_map) {
            if (is_map) {
              directory_->NoteMapped(s, addr, bytes);
            } else {
              directory_->NoteUnmapped(s, addr, bytes);
            }
          });
    }
    if (fabric != nullptr) {
      shard_servers_.push_back(std::make_unique<ShardServer>(this, s));
      fabric->set_server(s, shard_servers_.back().get());
    }
  }
  NGX_CHECK(config.free_batch >= 1 && config.free_batch <= kNgxRingCapacity,
            "free_batch must fit in one async ring");
  if (rebalance_) {
    // Two tick paths into the same guard (DESIGN.md §8). Busy shards tick
    // from the engines' post-drain hooks: every sync request and DrainAll
    // ends in a tick. Quiet shards, with no drains to hook, tick from a
    // periodic per-shard timer, which also reaches a server core whose
    // clock runs ahead of every client -- so a shard with no traffic still
    // pulls refills, sheds surplus and sends recycled spans home within one
    // period. Neither is installed when rebalancing is off, so
    // span_low_mark = 0 stays bit-identical.
    for (int s = 0; s < nshards; ++s) {
      fabric->set_post_drain_hook(
          s, [this, s](Env& server_env) { WatermarkTick(server_env, s); });
      const int core = fabric->server_cores()[static_cast<std::size_t>(s)];
      timer_hook_ids_.push_back(
          machine.AddTimerHook(core, config.watermark_timer_cycles, [this, s, core] {
            Env env(*machine_, core);
            WatermarkTick(env, s);
          }));
    }
  }
  if (config.prediction) {
    predictor_.emplace(machine.num_cores(), classes_.num_classes(), config.max_predict_batch);
    // Pipelined refills need the offload fabric (the refill rides the async
    // ring) and a nonzero mark; with either missing the single-stack layout
    // below is byte-for-byte the historical one, keeping pipeline-off runs
    // bit-identical to pre-pipeline builds.
    pipeline_ = config.offload && config.stash_pipeline && config.stash_refill_mark > 0;
    if (pipeline_) {
      NGX_CHECK(classes_.num_classes() < (1u << 16),
                "kRefillStash packs the size class into the tagged-ring arg");
      // [half 0][half 1][spill stack], the halves one 64-byte line each:
      // [seq|count][7 entries]. The per-half capacity is the line, not
      // config.stash_capacity -- REFILL batches beyond one line would cost a
      // transfer per extra line and hand out ever-colder server blocks. The
      // rest of the configured capacity becomes the client-only spill stack
      // behind the halves (see SpillAddr), which holds recycled frees, never
      // server fills, so its depth stretches no refill.
      NGX_CHECK(config.stash_capacity > 0, "pipelined stash needs a nonzero capacity");
      // Logical depths follow each core's tenant; the slot layout below is
      // sized by the deepest spill stack in the fleet (the global
      // stash_capacity's when no tenant overrides it).
      std::uint32_t max_spill = 0;
      for (int c = 0; c < machine.num_cores(); ++c) {
        const std::uint32_t cap = core_stash_cap_[static_cast<std::size_t>(c)];
        core_pipe_cap_[static_cast<std::size_t>(c)] =
            std::min<std::uint32_t>(cap, kPipeHalfCap);
        core_spill_depth_[static_cast<std::size_t>(c)] =
            cap > 2 * kPipeHalfCap ? cap - 2 * kPipeHalfCap : 0;
        max_spill = std::max(max_spill, core_spill_depth_[static_cast<std::size_t>(c)]);
      }
      stash_half_bytes_ = 64;
      stash_slot_ = 2 * stash_half_bytes_ + AlignUp(8ull * max_spill, 64);
      pipes_.assign(static_cast<std::size_t>(machine.num_cores()) * classes_.num_classes(),
                    StashPipe{});
    } else {
      stash_slot_ = AlignUp(IndexStack::FootprintBytes(max_stash_cap_), 64);
    }
    stash_stride_ = AlignUp(stash_slot_ * classes_.num_classes(), kSmallPageBytes);
    stash_provider_ = std::make_unique<PageProvider>(
        kNgxMetaBase + kHeapWindow, kHeapWindow, "ngx-stash");
    stash_base_ = stash_provider_->MapAtStartup(
        machine, stash_stride_ * machine.num_cores(),
        config.hugepage_metadata ? PageKind::kHuge2M : PageKind::kSmall4K);
  }
  if (pipeline_) {
    // With refills riding the ring instead of piggybacking on sync mallocs,
    // the server's drain windows would shrink to refill kicks only; let the
    // spinning server also pick up a half-full free ring in the background
    // (no client stall) so backpressure stalls stay the rare case.
    fabric_->set_eager_drain_at(kNgxRingCapacity / 2);
    // Ring pushes keep the producer indices in registers (SPSC idiom): a
    // remote free costs the entry store and the head release-store, not a
    // re-read of the server-written tail line per push.
    fabric_->set_producer_index_cache(true);
  }
  // Elastic-fleet epoch controller (DESIGN.md §14). Rides the same timer
  // mechanism as the watermark tick, on the first server core only: epoch
  // decisions are fleet-global (they read the whole traffic matrix), so one
  // controller clock avoids N racing epoch boundaries. Nothing is registered
  // and no tracking runs when adaptive_routing is off, so default runs stay
  // bit-identical whatever the other fleet knobs say.
  adaptive_ = config.adaptive_routing && fabric != nullptr && nshards > 1;
  if (adaptive_) {
    NGX_CHECK(config.epoch_cycles > 0, "adaptive routing needs an epoch length");
    fabric->set_epoch_tracking(true);
    woke_this_epoch_.assign(static_cast<std::size_t>(nshards), 0);
    // The controller starts on shard 0's server core but is ELECTED, not
    // hard-wired: when the ticker shard parks, EpochTick re-pins the timer
    // (Machine::MoveTimerHook) to the lowest-id active shard -- one always
    // exists, since the last active shard never parks. The callback reads
    // the elected shard at fire time; while shard 0 stays active nothing
    // moves and runs are bit-identical to the hard-wired scheme.
    epoch_ticker_shard_ = 0;
    epoch_timer_id_ =
        machine.AddTimerHook(fabric->server_cores().front(), config.epoch_cycles, [this] {
          Env env(*machine_,
                  fabric_->server_cores()[static_cast<std::size_t>(epoch_ticker_shard_)]);
          EpochTick(env);
        });
    timer_hook_ids_.push_back(epoch_timer_id_);
  }
  // QoS lanes + tenant labels on the fabric (DESIGN.md §15). Lane and label
  // assignment is observational until lane admission is enabled; home-shard
  // pins route a tenant's mallocs to its contracted shard.
  if (fabric != nullptr && !config.tenants.empty()) {
    for (int c = 0; c < machine.num_cores(); ++c) {
      const int t = core_tenant_[static_cast<std::size_t>(c)];
      if (t >= 0) {
        fabric->set_client_lane(c, core_lane_[static_cast<std::size_t>(c)]);
        fabric->set_client_label(c, tenant_names_[static_cast<std::size_t>(t)]);
      }
      if (core_home_shard_[static_cast<std::size_t>(c)] >= 0) {
        fabric->set_client_home_shard(c, core_home_shard_[static_cast<std::size_t>(c)]);
      }
    }
  }
  if (fabric != nullptr) {
    fabric->set_lane_admission(config.lane_quantum);
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

NgxAllocator::~NgxAllocator() {
  machine_->telemetry().recorder().ClearSnapshotSource();
  for (const int id : timer_hook_ids_) {
    machine_->RemoveTimerHook(id);
  }
  if (rebalance_ && fabric_ != nullptr) {
    for (int s = 0; s < num_shards(); ++s) {
      fabric_->set_post_drain_hook(s, nullptr);
    }
  }
}

void NgxAllocator::ResolveTenants(const Machine& machine, int nshards,
                                  const std::vector<int>* server_cores) {
  // Stage 1: every core and shard starts on the global contract. With no
  // tenants configured this is the whole function, and because the per-core
  // values then EQUAL the globals, every consumer (stash layout, free
  // batching, refill marks, watermarks) computes byte-identically to the
  // pre-traits build.
  const std::size_t ncores = static_cast<std::size_t>(machine.num_cores());
  tenant_names_.clear();
  core_tenant_.assign(ncores, -1);
  core_stash_cap_.assign(ncores, config_.stash_capacity);
  core_refill_mark_.assign(ncores, config_.stash_refill_mark);
  core_free_batch_.assign(ncores, config_.free_batch);
  core_pipe_cap_.assign(ncores, 0);   // filled by the pipeline sizing pass
  core_spill_depth_.assign(ncores, 0);
  core_lane_.assign(ncores, QosLane::kNormal);
  core_home_shard_.assign(ncores, -1);
  shard_low_mark_.assign(static_cast<std::size_t>(nshards), config_.span_low_mark);
  shard_high_mark_.assign(static_cast<std::size_t>(nshards), config_.span_high_mark);
  max_stash_cap_ = config_.stash_capacity;
  if (config_.tenants.empty()) {
    return;
  }
  // Stage 2: overlay each tenant's contract onto the cores it claims.
  // Validation happens here, once, at registration -- the hot paths index
  // the resolved vectors without re-checking anything.
  const bool will_pipeline = config_.offload && config_.prediction &&
                             config_.stash_pipeline && config_.stash_refill_mark > 0;
  // Shard-scoped traits (watermarks) come from the tenants homed on the
  // shard; two tenants meeting on one shard must agree.
  std::vector<int> mark_owner(static_cast<std::size_t>(nshards), -1);
  for (const TenantSpec& spec : config_.tenants) {
    NGX_CHECK(!spec.name.empty(), "tenant needs a name (it labels telemetry series)");
    for (const std::string& seen : tenant_names_) {
      NGX_CHECK(seen != spec.name, "duplicate tenant name");
    }
    const int t_idx = static_cast<int>(tenant_names_.size());
    tenant_names_.push_back(spec.name);
    const TenantTraits& t = spec.traits;
    // The pipeline's stash layout is [half 0][half 1][spill]: a capacity
    // override below two halves cannot host the protocol's publish word
    // dance, so it is rejected rather than silently clamped.
    NGX_CHECK(!will_pipeline || t.stash_capacity == TenantTraits::kInherit ||
                  t.stash_capacity >= 2 * kPipeHalfCap,
              "tenant stash capacity below the pipeline's two-half minimum");
    NGX_CHECK(t.stash_capacity == TenantTraits::kInherit || t.stash_capacity >= 1,
              "tenant stash capacity must be nonzero");
    // Lane admission drains bulk backlogs in free_batch-granular quanta; a
    // zero batch would admit doorbells carrying nothing, so the combination
    // is rejected before the generic ring-capacity bound.
    NGX_CHECK(config_.lane_quantum == 0 || t.free_batch != 0,
              "tenant free_batch=0 with QoS lanes on");
    NGX_CHECK(t.free_batch == TenantTraits::kInherit ||
                  (t.free_batch >= 1 && t.free_batch <= kNgxRingCapacity),
              "tenant free_batch must fit in one async ring");
    const bool has_low = t.span_low_mark != TenantTraits::kInherit64;
    const bool has_high = t.span_high_mark != TenantTraits::kInherit64;
    NGX_CHECK(has_low == has_high,
              "tenant watermark overrides must set both marks or neither");
    if (has_low) {
      NGX_CHECK(config_.span_low_mark > 0,
                "tenant watermark overrides need the global rebalance protocol on");
      NGX_CHECK(t.span_high_mark > t.span_low_mark,
                "tenant span_high_mark must exceed span_low_mark");
    }
    NGX_CHECK(t.home_shard < nshards, "tenant home_shard out of range");
    for (const int c : spec.cores) {
      NGX_CHECK(c >= 0 && c < machine.num_cores(), "tenant core out of range");
      if (server_cores != nullptr) {
        for (const int sc : *server_cores) {
          NGX_CHECK(sc != c, "tenant claims a shard server core");
        }
      }
      const std::size_t ci = static_cast<std::size_t>(c);
      NGX_CHECK(core_tenant_[ci] < 0, "core claimed by two tenants");
      core_tenant_[ci] = static_cast<std::int16_t>(t_idx);
      if (t.stash_capacity != TenantTraits::kInherit) {
        core_stash_cap_[ci] = t.stash_capacity;
      }
      if (t.stash_refill_mark != TenantTraits::kInherit) {
        core_refill_mark_[ci] = t.stash_refill_mark;
      }
      if (t.free_batch != TenantTraits::kInherit) {
        core_free_batch_[ci] = t.free_batch;
      }
      core_lane_[ci] = t.lane;
      // Home resolution: an explicit pin wins; the NUMA-local preset walks
      // the cluster topology for a shard whose server core shares this
      // client's cluster (first match, deterministic).
      int home = t.home_shard;
      if (home < 0 && t.preset == TenantPreset::kNumaLocal &&
          server_cores != nullptr && machine.config().cluster_cores > 0) {
        const int k = machine.config().cluster_cores;
        for (int s = 0; s < nshards; ++s) {
          if ((*server_cores)[static_cast<std::size_t>(s)] / k == c / k) {
            home = s;
            break;
          }
        }
      }
      core_home_shard_[ci] = home;
      // Shard-scoped traits bind to the resolved home, or to the core's
      // static route when unpinned (the shard its mallocs reach under
      // static_by_client).
      const std::size_t hs =
          static_cast<std::size_t>(home >= 0 ? home : c % nshards);
      if (has_low) {
        NGX_CHECK(mark_owner[hs] < 0 ||
                      (shard_low_mark_[hs] == t.span_low_mark &&
                       shard_high_mark_[hs] == t.span_high_mark),
                  "tenants sharing a shard bind conflicting watermarks");
        shard_low_mark_[hs] = t.span_low_mark;
        shard_high_mark_[hs] = t.span_high_mark;
        mark_owner[hs] = t_idx;
      }
      max_stash_cap_ = std::max(max_stash_cap_, core_stash_cap_[ci]);
    }
  }
}

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
  c_donated_spans_ = &m.GetCounter("ngx.donated_spans", {{"alloc", "nextgen"}});
  c_rebalance_moves_ = &m.GetCounter("ngx.rebalance_moves", {{"alloc", "nextgen"}});
  c_returned_spans_ = &m.GetCounter("ngx.returned_spans", {{"alloc", "nextgen"}});
  c_inline_fallbacks_ =
      &m.GetCounter("ngx.inline_donation_fallbacks", {{"alloc", "nextgen"}});
  c_routing_epochs_ = &m.GetCounter("ngx.routing_epochs", {{"alloc", "nextgen"}});
  c_client_moves_ = &m.GetCounter("ngx.client_moves", {{"alloc", "nextgen"}});
  c_shards_parked_ = &m.GetCounter("ngx.shards_parked", {{"alloc", "nextgen"}});
  c_stash_refills_ = &m.GetCounter("ngx.stash_refills", {{"alloc", "nextgen"}});
  h_refill_batch_ = &m.GetHistogram("ngx.stash_refill_batch", {{"alloc", "nextgen"}});
  c_refill_overlap_ = &m.GetCounter("ngx.refill_overlap_cycles", {{"alloc", "nextgen"}});
  c_starvation_ = &m.GetCounter("ngx.stash_starvation_stalls", {{"alloc", "nextgen"}});
  c_stash_recycles_ = &m.GetCounter("ngx.stash_recycles", {{"alloc", "nextgen"}});
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
  if (heaps_.size() == 1) {
    return 0;
  }
  // Span-granular lookup: donation moves spans between shards mid-run, so
  // the old fixed-slice divide would misroute frees of donated spans.
  return directory_->OwnerOfAddr(addr);
}

Addr NgxAllocator::Malloc(Env& env, std::uint64_t size) {
  const bool rec = Recording();
  ClientOpScope op_scope(Recorder(), env);
  const std::uint64_t t0 = env.now();
  if (!config_.offload) {
    const Addr a = heaps_[0]->Malloc(env, size);
    NoteMallocTraffic(env.core_id(), 0, size);
    return FinishMalloc(env, h_malloc_inline_, a, rec, t0);
  }
  env.Work(4);  // stub dispatch
  if (config_.prediction && size <= classes_.max_size()) {
    const std::uint32_t cls = classes_.ClassOf(size);
    if (pipeline_) {
      return PipelinedMalloc(env, size, cls, rec, t0);
    }
    IndexStack stash = Stash(env.core_id(), cls);
    std::uint64_t block = 0;
    if (stash.Pop(env, &block)) {
      return StashHit(env, size, cls, block, 0, rec, t0);
    }
    return FinishMalloc(env, h_malloc_sync_, SyncMalloc(env, size, cls, OffloadOp::kMallocBatch),
                        rec, t0);
  }
  return FinishMalloc(env, h_malloc_sync_,
                      SyncMalloc(env, size, RouteClassOf(size), OffloadOp::kMalloc), rec, t0);
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
  if (pipeline_) {
    MaybePostRefill(env, cls, remaining);
  }
  NoteMallocTraffic(env.core_id(), StashShard(env.core_id(), cls), size);
  return FinishMalloc(env, h_malloc_stash_, block, rec, t0);
}

Addr NgxAllocator::SyncMalloc(Env& env, std::uint64_t size, std::uint32_t cls, OffloadOp op) {
  ++sync_mallocs_;
  const int shard = fabric_->RouteMalloc(env.core_id(), size, cls);
  if (op == OffloadOp::kMallocBatch) {
    // The reply stocks the stash: its later hits came from this shard.
    StashShard(env.core_id(), cls) = static_cast<std::int16_t>(shard);
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
  if (pipeline_) {
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
        c_stash_recycles_->Add();
        h_free_->Record(env.now() - t0);
      }
      return;
    }
  }
  // A block is always returned to the shard owning its heap partition, no
  // matter which client frees it or which policy routed the malloc.
  const int shard = ShardOfAddr(addr);
  if (FlightRecorder* frec = Recorder()) {
    frec->matrix().NoteFree(env.core_id(), shard);
  }
  if (config_.async_free) {
    const std::uint32_t batch = core_free_batch_[static_cast<std::size_t>(env.core_id())];
    if (batch > 1) {
      // Staged straight into the ring; every batch-th free of this tenant
      // publishes the batch with one doorbell (DESIGN.md §7).
      fabric_->StageFree(env, shard, addr, batch);
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
  if (count < core_pipe_cap_[static_cast<std::size_t>(core)]) {
    // One timed store -- the entry itself, at the active half's top, where
    // the very next pop of this class returns it (depth-1 LIFO). The count
    // bump is the register mirror.
    env.Store<std::uint64_t>(HalfAddr(core, cls, pipe.active) + 8 * (count + 1), addr);
    pipe.count[pipe.active] = count + 1;
    return true;
  }
  if (pipe.spill < core_spill_depth_[static_cast<std::size_t>(core)]) {
    // Active half full (a free burst): retain the block client-side on the
    // spill stack rather than shipping it to the server only to refill it
    // back later. Spill lines are touched by no other core, so this is one
    // local store with no coherence traffic at all.
    env.Store<std::uint64_t>(SpillAddr(core, cls, pipe.spill), addr);
    ++pipe.spill;
    return true;
  }
  return false;  // inventory bounded; the free takes the ring to its shard
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
  if (pipe.spill > 0) {
    // Active half dry but the spill stack holds recycled frees: one local
    // load, LIFO -- the most recently freed block of this class, likeliest
    // still warm in this core's cache. Spill blocks are consumed before any
    // refill is posted (they are hotter than anything the server could
    // send).
    --pipe.spill;
    block = env.Load<std::uint64_t>(SpillAddr(core, cls, pipe.spill));
    return StashHit(env, size, cls, block, pipe.spill, rec, t0);
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
  const Addr a = SyncMalloc(env, size, cls, OffloadOp::kMallocBatch);
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
  if (pipe.in_flight ||
      remaining > core_refill_mark_[static_cast<std::size_t>(core)]) {
    return;
  }
  if (pipe.count[pipe.active ^ 1] > 0 || pipe.spill > 0) {
    return;  // client-held blocks remain; they are hotter than any refill
  }
  const std::uint32_t want =
      predictor_->RefillSize(core, cls, core_pipe_cap_[static_cast<std::size_t>(core)]);
  if (want == 0) {
    return;  // stream too cold; the next miss pays the sync trip and warms it
  }
  predictor_->OnStashRefill(core, cls);
  const int shard = fabric_->RouteMalloc(core, classes_.SizeOf(cls), cls);
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
    if (Recording()) {
      c_starvation_->Add();
    }
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
  if (Recording()) {
    c_refill_overlap_->Add(hidden);
  }
}

std::uint64_t NgxAllocator::HandleRefillStash(Env& server_env, int shard, int client,
                                              std::uint64_t arg) {
  const std::uint32_t cls = static_cast<std::uint32_t>(arg >> 24);
  const std::uint32_t want = static_cast<std::uint32_t>((arg >> 8) & 0xffff);
  const int half = static_cast<int>(arg & 0xff);
  NGX_CHECK(pipeline_ && cls < classes_.num_classes(), "refill without a pipelined stash");
  StashPipe& pipe = Pipe(client, cls);
  NGX_CHECK(pipe.in_flight && static_cast<int>(pipe.filling) == half && pipe.want == want,
            "kRefillStash out of protocol order");
  NGX_CHECK(want <= kPipeHalfCap, "refill batch cannot exceed one stash line");
  pipe.fill_start = server_env.now();
  ServerHeap& heap = *heaps_[static_cast<std::size_t>(shard)];
  const Addr base = HalfAddr(client, cls, half);
  Addr got[kPipeHalfCap];
  std::uint32_t filled = 0;
  while (filled < want) {
    Addr b = heap.Malloc(server_env, classes_.SizeOf(cls));
    if (b == kNullAddr && donation_) {
      b = MallocWithDonation(server_env, shard, classes_.SizeOf(cls));
    }
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
    c_stash_refills_->Add();
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
      if (pipeline_) {
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
        while (pipe.spill > 0) {
          --pipe.spill;
          block = env.Load<std::uint64_t>(SpillAddr(env.core_id(), cls, pipe.spill));
          fabric_->AsyncRequest(env, ShardOfAddr(block), OffloadOp::kFree, block);
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
    case OffloadOp::kMalloc: {
      Addr a = heap.Malloc(server_env, arg);
      if (a == kNullAddr && donation_) {
        a = MallocWithDonation(server_env, shard, arg);
      }
      if (a == kNullAddr) {
        ++partition_ooms_;
      }
      return a;
    }
    case OffloadOp::kMallocBatch: {
      Addr first = heap.Malloc(server_env, arg);
      if (first == kNullAddr && donation_) {
        first = MallocWithDonation(server_env, shard, arg);
      }
      if (first == kNullAddr) {
        ++partition_ooms_;
      }
      if (first == kNullAddr || !config_.prediction) {
        return first;
      }
      const std::uint32_t cls = classes_.ClassOf(arg);
      std::uint32_t batch = predictor_->OnMallocMiss(client, cls);
      if (pipeline_) {
        // The sync path seeds the client's ACTIVE half, which the protocol
        // guarantees is dry (both halves empty, no refill in flight, or the
        // sync trip would not have run) -- so the server fills from slot 1
        // without reading the stale header and stores the plain count (the
        // sync response the client is spinning on orders these stores; the
        // client refreshes its register mirror from the header after the
        // trip).
        const Addr base = HalfAddr(client, cls, Pipe(client, cls).active);
        batch = std::min(batch, core_pipe_cap_[static_cast<std::size_t>(client)]);
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
      batch = std::min(batch, core_stash_cap_[static_cast<std::size_t>(client)]);
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
      // Same donor-side carve whether the pull is a malloc-path fallback or
      // the rebalancer staying ahead of its low mark.
      return HandleDonateSpan(server_env, shard, arg);
    case OffloadOp::kOfferSpans:
    case OffloadOp::kReturnSpan:
      return HandleSpanGraft(server_env, shard, arg);
    case OffloadOp::kRefillStash:
      return HandleRefillStash(server_env, shard, client, arg);
  }
  return 0;
}

std::uint64_t NgxAllocator::NeededGrantSpans(std::uint64_t size) const {
  std::uint64_t map_bytes;
  if (size <= classes_.max_size()) {
    // Small classes carve whole segments (segment heap) or bump-carve whole
    // spans (aggregated); either way one grant unit refills a class.
    map_bytes = grant_unit_spans_ * span_bytes_;
  } else if (config_.heap_kind == HeapKind::kAggregated) {
    // Aggregated large regions carry a page-sized header before user bytes.
    map_bytes = AlignUp(size, kSmallPageBytes) + kSmallPageBytes;
  } else {
    // The segment heap maps span-aligned multiples; packed hugepage maps are
    // span-granular again, so no hugepage round-up.
    map_bytes = AlignUp(AlignUp(size, span_bytes_),
                        (config_.hugepage_spans && !config_.hugepage_packing)
                            ? kHugePageBytes
                            : kSmallPageBytes);
  }
  const std::uint64_t spans = AlignUp(map_bytes, span_bytes_) / span_bytes_;
  return AlignUp(spans, grant_unit_spans_);
}

int NgxAllocator::PickDonor(const std::vector<bool>& excluded) const {
  int best = -1;
  std::uint64_t best_free = 0;
  for (int s = 0; s < num_shards(); ++s) {
    if (excluded[static_cast<std::size_t>(s)]) {
      continue;
    }
    const std::uint64_t f = directory_->free_spans(s);
    if (f > best_free) {  // ties keep the lower shard id (deterministic)
      best_free = f;
      best = s;
    }
  }
  return best;
}

Addr NgxAllocator::MallocWithDonation(Env& server_env, int shard, std::uint64_t size) {
  // Reaching this point means a malloc already failed and is paying the
  // refill round trip inline -- exactly what watermark rebalancing exists to
  // make rare.
  ++inline_fallbacks_;
  if (Recording()) {
    c_inline_fallbacks_->Add();
  }
  const std::uint64_t need = NeededGrantSpans(size);
  NGX_CHECK(need < (1ull << 16), "span grant too large for the donation protocol");
  std::vector<bool> excluded(heaps_.size(), false);
  excluded[static_cast<std::size_t>(shard)] = true;
  // Each round grafts at least one grant unit onto the partition (donors
  // fall back to a single unit when they cannot spare `need` contiguous
  // spans; successive tail trims from one donor coalesce into a contiguous
  // range), or excludes an empty donor. Bounded by work, not luck.
  const std::uint64_t max_rounds = need / grant_unit_spans_ + heaps_.size() + 1;
  for (std::uint64_t round = 0; round < max_rounds; ++round) {
    // Cheapest first: the shard's own recycled spans need no fabric message.
    const Addr self = directory_->TakeRecycled(shard, need, grant_align_);
    if (self != kNullAddr) {
      heaps_[static_cast<std::size_t>(shard)]->span_provider().AddRange(self,
                                                                        need * span_bytes_);
    } else {
      const int donor = PickDonor(excluded);
      if (donor < 0) {
        break;  // every shard is dry: a true fabric-wide OOM
      }
      const std::uint64_t arg =
          (need << 8) | static_cast<std::uint64_t>(static_cast<unsigned>(shard));
      const std::uint64_t resp =
          fabric_->SyncRequest(server_env, donor, OffloadOp::kDonateSpan, arg);
      if (resp == 0) {
        excluded[static_cast<std::size_t>(donor)] = true;
        continue;
      }
      const Addr base = resp & ~static_cast<std::uint64_t>(0xffff);
      const std::uint64_t got = resp & 0xffff;
      heaps_[static_cast<std::size_t>(shard)]->span_provider().AddRange(base,
                                                                        got * span_bytes_);
      if (got < need) {
        continue;  // partial grant: accrete more before retrying the malloc
      }
    }
    const Addr a = heaps_[static_cast<std::size_t>(shard)]->Malloc(server_env, size);
    if (a != kNullAddr) {
      return a;
    }
  }
  // Partial grants may have accreted enough by the time the loop exits.
  return heaps_[static_cast<std::size_t>(shard)]->Malloc(server_env, size);
}

std::uint64_t NgxAllocator::HandleDonateSpan(Env& server_env, int donor, std::uint64_t arg) {
  const int requester = static_cast<int>(arg & 0xff);
  const std::uint64_t want = arg >> 8;
  NGX_CHECK(requester >= 0 && requester < num_shards() && requester != donor,
            "malformed donation request");
  return CarveSpans(server_env, donor, requester, want);
}

std::uint64_t NgxAllocator::CarveSpans(Env& server_env, int donor, int to,
                                       std::uint64_t want) {
  // Every cross-shard ownership transfer (kDonateSpan, kRequestSpans,
  // surplus offers) funnels through here. Donor-side bookkeeping:
  // recycled-pool scan plus directory update.
  server_env.Work(12);
  PageProvider& provider = heaps_[static_cast<std::size_t>(donor)]->span_provider();
  for (const std::uint64_t n : {want, grant_unit_spans_}) {
    if (n == 0 || n > want) {
      continue;
    }
    // Recycled spans first (they are already carved out of the window);
    // otherwise trim the unconsumed tail of the donor's window.
    Addr base = directory_->TakeRecycled(donor, n, grant_align_);
    if (base == kNullAddr) {
      base = provider.TrimTail(n * span_bytes_, grant_align_);
    }
    if (base == kNullAddr) {
      continue;
    }
    directory_->TransferRange(base, n, donor, to);
    if (Recording()) {
      c_donated_spans_->Add(n);
      Telemetry& tel = machine_->telemetry();
      if (tel.tracing()) {
        tel.tracer().Instant("donate_span", server_env.core_id(), server_env.now());
      }
    }
    assert((base & 0xffff) == 0 && "span bases leave the count bits free");
    return base | n;
  }
  return 0;
}

std::uint64_t NgxAllocator::HandleSpanGraft(Env& server_env, int shard, std::uint64_t arg) {
  const Addr base = arg & ~static_cast<std::uint64_t>(0xffff);
  const std::uint64_t n = arg & 0xffff;
  NGX_CHECK(n > 0 && directory_ != nullptr, "malformed span graft");
  NGX_CHECK(directory_->OwnerOfAddr(base) == shard,
            "span graft for a range the shard does not own");
  // The sender already moved directory ownership; the recipient only grafts
  // the range onto its provider window.
  server_env.Work(6);
  heaps_[static_cast<std::size_t>(shard)]->span_provider().AddRange(base, n * span_bytes_);
  return 1;
}

void NgxAllocator::WatermarkTick(Env& server_env, int shard) {
  // Ticks fire from drain hooks, and a tick's own fabric messages trigger
  // the recipient's drain hook: the allocator-wide guard keeps exactly one
  // tick in flight (and makes the recursion depth bounded by construction).
  if (in_rebalance_) {
    return;
  }
  in_rebalance_ = true;
  const std::uint64_t low = shard_low_mark_[static_cast<std::size_t>(shard)];
  const std::uint64_t high = shard_high_mark_[static_cast<std::size_t>(shard)];
  // A few moves per tick keep any pending request's queue wait bounded;
  // steady drain traffic supplies plenty of ticks.
  for (int moves = 0; moves < 4; ++moves) {
    const std::uint64_t free = directory_->free_spans(shard);
    bool acted = false;
    if (free < low) {
      // Staying ahead of partition exhaustion beats everything else.
      acted = TryRefill(server_env, shard, free);
    } else if (free > high) {
      // Recycled away spans flow home first; native surplus is offered to
      // peers below their low mark.
      acted = TryReturnHome(server_env, shard);
      if (!acted) {
        acted = TryOfferSurplus(server_env, shard, free);
      }
    }
    if (!acted) {
      // No fabric traffic warranted: keep the shard's own provider stocked
      // from its recycled pool so steady-state span reuse stays off the
      // malloc path too.
      acted = TryRestockLocal(server_env, shard);
    }
    if (!acted) {
      break;
    }
    ++rebalance_moves_;
    if (Recording()) {
      c_rebalance_moves_->Add();
    }
  }
  in_rebalance_ = false;
}

bool NgxAllocator::TryRestockLocal(Env& server_env, int shard) {
  // Once the virgin provider window is consumed, every span grant would
  // otherwise fail first and pay the inline fallback's TakeRecycled detour
  // on the malloc path. Grafting recycled spans back during idle time keeps
  // the provider's unconsumed tail at one grant unit above the low mark.
  PageProvider& provider = heaps_[static_cast<std::size_t>(shard)]->span_provider();
  const std::uint64_t target =
      (shard_low_mark_[static_cast<std::size_t>(shard)] + grant_unit_spans_) * span_bytes_;
  if (provider.FreeBytes() >= target) {
    return false;
  }
  const Addr base = directory_->TakeRecycled(shard, grant_unit_spans_, grant_align_);
  if (base == kNullAddr) {
    return false;  // nothing contiguous recycled; refill handles true scarcity
  }
  server_env.Work(4);
  provider.AddRange(base, grant_unit_spans_ * span_bytes_);
  return true;
}

bool NgxAllocator::TryRefill(Env& server_env, int shard, std::uint64_t free) {
  const std::uint64_t low = shard_low_mark_[static_cast<std::size_t>(shard)];
  // Refill to one grant unit above the low mark so the next few grants do
  // not immediately re-trigger the pull.
  const std::uint64_t want = AlignUp(low + grant_unit_spans_ - free, grant_unit_spans_);
  NGX_CHECK(want < (1ull << 16), "span refill too large for the donation protocol");
  std::vector<bool> excluded(heaps_.size(), false);
  excluded[static_cast<std::size_t>(shard)] = true;
  const int donor = PickDonor(excluded);
  // Anti-ping-pong: a donation must not push the donor below its OWN low
  // mark (the donor's tenant contract, not the requester's), or the refill
  // would bounce straight back next tick.
  if (donor < 0 ||
      directory_->free_spans(donor) <
          shard_low_mark_[static_cast<std::size_t>(donor)] + want) {
    return false;
  }
  const std::uint64_t arg =
      (want << 8) | static_cast<std::uint64_t>(static_cast<unsigned>(shard));
  const std::uint64_t resp =
      fabric_->SyncRequest(server_env, donor, OffloadOp::kRequestSpans, arg);
  if (resp == 0) {
    return false;
  }
  const Addr base = resp & ~static_cast<std::uint64_t>(0xffff);
  const std::uint64_t got = resp & 0xffff;
  heaps_[static_cast<std::size_t>(shard)]->span_provider().AddRange(base,
                                                                    got * span_bytes_);
  return true;
}

bool NgxAllocator::TryReturnHome(Env& server_env, int shard) {
  if (directory_->away_spans(shard) == 0) {
    return false;
  }
  const std::uint64_t free = directory_->free_spans(shard);
  const std::uint64_t low = shard_low_mark_[static_cast<std::size_t>(shard)];
  if (free <= low) {
    return false;
  }
  // Never return so much that the shard drops below its own low mark, and
  // keep the count inside the wire format's 16 bits.
  std::uint64_t max_units = (free - low) / grant_unit_spans_;
  max_units = std::min<std::uint64_t>(max_units, ((1ull << 16) - 1) / grant_unit_spans_);
  return max_units > 0 && ReturnRunHome(server_env, shard, max_units);
}

bool NgxAllocator::ReturnRunHome(Env& server_env, int shard, std::uint64_t max_units) {
  int home = -1;
  std::uint64_t n = 0;
  const Addr base = directory_->FindRecycledAwayRun(shard, grant_unit_spans_, max_units,
                                                    grant_align_, &home, &n);
  if (base == kNullAddr) {
    return false;
  }
  directory_->ReturnRange(base, n, shard);
  fabric_->SyncRequest(server_env, home, OffloadOp::kReturnSpan, base | n);
  if (Recording()) {
    c_returned_spans_->Add(n);
    Telemetry& tel = machine_->telemetry();
    if (tel.tracing()) {
      tel.tracer().Instant("return_span", server_env.core_id(), server_env.now());
    }
  }
  return true;
}

bool NgxAllocator::TryOfferSurplus(Env& server_env, int shard, std::uint64_t free) {
  const std::uint64_t high = shard_high_mark_[static_cast<std::size_t>(shard)];
  // Push only when a peer is actually short of ITS OWN low mark (per-tenant
  // watermarks make "needy" a per-shard judgment): the lowest free count
  // below its mark, ties to the lower shard id (deterministic).
  int needy = -1;
  std::uint64_t needy_free = ~0ull;
  for (int s = 0; s < num_shards(); ++s) {
    if (s == shard) {
      continue;
    }
    const std::uint64_t f = directory_->free_spans(s);
    if (f < shard_low_mark_[static_cast<std::size_t>(s)] && f < needy_free) {
      needy_free = f;
      needy = s;
    }
  }
  if (needy < 0) {
    return false;
  }
  const std::uint64_t want = AlignUp(
      shard_low_mark_[static_cast<std::size_t>(needy)] + grant_unit_spans_ - needy_free,
      grant_unit_spans_);
  const std::uint64_t surplus = (free - high) / grant_unit_spans_ * grant_unit_spans_;
  const std::uint64_t n = std::min(want, surplus);
  if (n == 0) {
    return false;
  }
  const std::uint64_t carved = CarveSpans(server_env, shard, needy, n);
  if (carved == 0) {
    return false;
  }
  fabric_->SyncRequest(server_env, needy, OffloadOp::kOfferSpans, carved);
  return true;
}

int NgxAllocator::MigrateGrantedHome(Env& server_env, int shard, int max_moves) {
  if (directory_ == nullptr || !donation_) {
    return 0;  // no span protocol: nothing was ever granted across shards
  }
  // Unlike TryReturnHome there is no low-mark retention: the shard is going
  // dormant, so every fully-recycled granted run flows back to its home
  // shard's provider window. Runs still holding live blocks cannot move --
  // their frees keep reaching this shard via the span directory while it is
  // parked, and they become migratable once recycled.
  const std::uint64_t cap = ((1ull << 16) - 1) / grant_unit_spans_;
  int moves = 0;
  while (moves < max_moves && ReturnRunHome(server_env, shard, cap)) {
    ++moves;
    ++rebalance_moves_;
  }
  return moves;
}

void NgxAllocator::EpochTick(Env& env) {
  // Migration traffic drains recipient rings, whose post-drain hooks would
  // start watermark ticks mid-epoch; share the allocator-wide guard so epoch
  // and watermark work never interleave.
  if (in_rebalance_) {
    return;
  }
  in_rebalance_ = true;
  constexpr int kEpochMigrateMoves = 8;
  ++routing_epochs_;
  const std::uint64_t parked_before = shards_parked_;
  const std::uint64_t total_ops = fabric_->TakeEpoch(&epoch_scratch_);
  const int nsh = fabric_->num_shards();
  std::fill(woke_this_epoch_.begin(), woke_this_epoch_.end(), 0);

  // 1. Step draining shards toward kParked: return recycled granted runs
  // home on the shard's own server core, a bounded batch per epoch.
  for (int s = 0; s < nsh; ++s) {
    if (fabric_->shard_state(s) != ShardState::kDraining) {
      continue;
    }
    Env senv(*machine_, fabric_->server_cores()[static_cast<std::size_t>(s)]);
    if (MigrateGrantedHome(senv, s, kEpochMigrateMoves) < kEpochMigrateMoves) {
      fabric_->set_shard_state(s, ShardState::kParked);
      ++shards_parked_;
    }
  }

  // 2. Wake on queue-depth pressure: a parked shard whose own ring backlog
  // crossed the threshold wakes (frees piling up mean its partition is hot
  // again); a saturated busiest active shard buys one extra shard of
  // headroom per epoch.
  std::uint64_t busiest = 0;
  bool slack = false;
  for (int s = 0; s < nsh; ++s) {
    if (fabric_->shard_state(s) != ShardState::kActive) {
      continue;
    }
    busiest = std::max(busiest, fabric_->QueueDepth(s));
    // An active shard already below break-even is spare capacity the policy
    // can re-pack onto; waking more shards would not relieve anything.
    if (config_.park_threshold_ops > 0 &&
        epoch_scratch_.ColTotal(s) < config_.park_threshold_ops) {
      slack = true;
    }
  }
  bool pressure_spent = false;
  for (int s = 0; s < nsh; ++s) {
    if (fabric_->shard_state(s) != ShardState::kParked) {
      continue;
    }
    const bool own = fabric_->QueueDepth(s) >= config_.wake_queue_depth;
    const bool pressure = !pressure_spent && !slack && busiest >= config_.wake_queue_depth;
    if (!own && !pressure) {
      continue;
    }
    fabric_->set_shard_state(s, ShardState::kActive);
    woke_this_epoch_[static_cast<std::size_t>(s)] = 1;
    ++shards_woken_;
    if (!own) {
      pressure_spent = true;
    }
  }

  // 3. Park below break-even: drain the coldest active shard under the
  // threshold. The fleet shrinks at most ONE shard per epoch -- a single
  // low-traffic epoch (warm-up, a phase boundary) must not collapse the
  // whole fleet before the matrix has anything to say -- and never parks
  // its last active shard, which must keep serving mallocs and hosting
  // this controller. A shard woken this epoch has had no chance to earn its
  // keep yet and is exempt until the next close.
  if (config_.park_threshold_ops > 0 && fabric_->num_active_shards() > 1) {
    int coldest = -1;
    std::uint64_t coldest_ops = 0;
    for (int s = 0; s < nsh; ++s) {
      if (fabric_->shard_state(s) != ShardState::kActive ||
          woke_this_epoch_[static_cast<std::size_t>(s)] != 0) {
        continue;
      }
      const std::uint64_t ops = epoch_scratch_.ColTotal(s);
      if (ops < config_.park_threshold_ops && (coldest < 0 || ops < coldest_ops)) {
        coldest = s;
        coldest_ops = ops;
      }
    }
    if (coldest >= 0) {
      fabric_->set_shard_state(coldest, ShardState::kDraining);
      Env senv(*machine_, fabric_->server_cores()[static_cast<std::size_t>(coldest)]);
      if (MigrateGrantedHome(senv, coldest, kEpochMigrateMoves) < kEpochMigrateMoves) {
        fabric_->set_shard_state(coldest, ShardState::kParked);
        ++shards_parked_;
      }
    }
  }

  // 3b. Controller election: if the shard whose server core carries the
  // epoch timer just left the active set (parked or draining), hand the
  // ticker to the lowest-id active shard. MoveTimerHook mutates the hook's
  // core in place -- legal from inside this very callback -- and keeps its
  // next_due, so the epoch cadence never skips a beat. While the ticker
  // shard stays active this never runs, keeping such runs bit-identical to
  // the historical first-server-core wiring.
  if (fabric_->shard_state(epoch_ticker_shard_) != ShardState::kActive) {
    for (int s = 0; s < nsh; ++s) {
      if (fabric_->shard_state(s) == ShardState::kActive) {
        epoch_ticker_shard_ = s;
        machine_->MoveTimerHook(epoch_timer_id_,
                                fabric_->server_cores()[static_cast<std::size_t>(s)]);
        break;
      }
    }
  }

  // 4. Feed the policy the closed matrix against the post-decision fleet, so
  // re-packing only targets shards that will actually serve mallocs.
  for (int s = 0; s < nsh; ++s) {
    epoch_scratch_.active[static_cast<std::size_t>(s)] =
        fabric_->shard_state(s) == ShardState::kActive ? 1 : 0;
  }
  fabric_->routing().Observe(epoch_scratch_);
  const std::uint64_t moves_total = fabric_->routing().client_moves();
  const std::uint64_t epoch_moves = moves_total - last_client_moves_;
  last_client_moves_ = moves_total;

  // 5. Close the books. Parked capacity accrues for the epoch ahead: every
  // non-active shard's core is released from the malloc path for the next
  // epoch_cycles (the §3.1.1 break-even dividend).
  const int active_now = fabric_->num_active_shards();
  const int parked_now = nsh - active_now;
  parked_core_cycles_ +=
      config_.epoch_cycles * static_cast<std::uint64_t>(parked_now);
  FleetEpoch fe;
  fe.cycle = env.now();
  fe.epoch_ops = total_ops;
  fe.active_shards = active_now;
  fe.parked_shards = parked_now;
  fe.client_moves = epoch_moves;
  fleet_timeline_.push_back(fe);
  if (Recording()) {
    c_routing_epochs_->Add();
    if (epoch_moves > 0) {
      c_client_moves_->Add(epoch_moves);
    }
    if (shards_parked_ > parked_before) {
      c_shards_parked_->Add(shards_parked_ - parked_before);
    }
  }
  in_rebalance_ = false;
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
    block = AlignUp(size, span_bytes_);
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
    if (directory_ != nullptr) {
      sh.owned_spans = directory_->owned_spans(s);
      sh.free_spans = directory_->free_spans(s);
      sh.recycled_spans = directory_->recycled_spans(s);
      sh.granted_spans = directory_->granted_spans(s);
      sh.away_spans = directory_->away_spans(s);
    }
    HeapInspection in = heaps_[static_cast<std::size_t>(s)]->Inspect();
    sh.bytes_live = in.bytes_live;
    sh.data_mapped_bytes = in.data_mapped_bytes;
    sh.meta_mapped_bytes = in.meta_mapped_bytes;
    sh.free_blocks = in.free_blocks;
    sh.free_block_bytes = in.free_block_bytes;
    sh.bump_reserve_bytes = in.bump_reserve_bytes;
    sh.large_blocks = in.large_blocks;
    sh.large_bytes = in.large_bytes;
    sh.empty_pool_segments = in.empty_pool_segments;
    sh.live_slabs = in.live_slabs;
    sh.full_slabs = in.full_slabs;
    sh.slab_fill_decile = std::move(in.slab_fill_decile);
    sh.truncated = in.truncated;
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
  // prefills cut short stay inside the server. Inline, every heap call is a
  // caller's malloc.
  if (config_.offload) {
    total.oom_failures = partition_ooms_;
  }
  total.mallocs += total.oom_failures;
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
                                                 kChannelBase, kNgxRingCapacity,
                                                 MakeRoutingPolicy(config.routing));
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
  std::vector<int> cores;
  cores.reserve(static_cast<std::size_t>(config.num_shards));
  if (config.placement == PlacementKind::kContiguous) {
    for (int s = 0; s < config.num_shards; ++s) {
      const int core = ncores - config.num_shards + s;
      NGX_CHECK(core >= 0 && !taken[static_cast<std::size_t>(core)],
                "contiguous placement collides with a client core");
      cores.push_back(core);
    }
    return cores;
  }
  const int k = machine.config().cluster_cores;
  NGX_CHECK(k > 0, "per_cluster placement needs MachineConfig::cluster_cores");
  const int nclusters = (ncores + k - 1) / k;
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

NgxSystem MakeNgxSystemPlaced(Machine& machine, const NgxConfig& config,
                              const std::vector<int>& client_cores) {
  if (!config.offload) {
    return MakeNgxSystem(machine, config, std::vector<int>{});
  }
  return MakeNgxSystem(machine, config, ChooseServerCores(machine, config, client_cores));
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
