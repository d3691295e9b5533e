#include "src/offload/offload_engine.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "src/sim/check.h"

namespace ngx {

namespace {

// Per-request instruction overhead of the server's poll loop (dispatch, flag
// checks).
constexpr std::uint32_t kPollWork = 6;

// Ops whose handler is the heap's carve/classify path; their server-side
// service time is what OffloadEngineStats::carve_cycles accumulates.
bool IsCarveOp(OffloadOp op) {
  return op == OffloadOp::kMalloc || op == OffloadOp::kMallocBatch ||
         op == OffloadOp::kRefillStash || op == OffloadOp::kFree;
}

const char* OpName(OffloadOp op) {
  switch (op) {
    case OffloadOp::kMalloc:
      return "malloc";
    case OffloadOp::kFree:
      return "free";
    case OffloadOp::kUsableSize:
      return "usable_size";
    case OffloadOp::kFlush:
      return "flush";
    case OffloadOp::kMallocBatch:
      return "malloc_batch";
    case OffloadOp::kDonateSpan:
      return "donate_span";
    case OffloadOp::kRequestSpans:
      return "request_spans";
    case OffloadOp::kOfferSpans:
      return "offer_spans";
    case OffloadOp::kReturnSpan:
      return "return_span";
    case OffloadOp::kRefillStash:
      return "refill_stash";
  }
  return "unknown";
}

}  // namespace

OffloadEngine::OffloadEngine(Machine& machine, int server_core, Addr channel_base,
                             std::uint32_t ring_capacity)
    : machine_(&machine), server_core_(server_core) {
  // Construction-time validation must survive NDEBUG: an out-of-range ring
  // capacity would overrun the kChannelStride-byte channel block into the
  // next client's mailbox, and a bad core id indexes off the core array.
  NGX_CHECK(server_core >= 0 && server_core < machine.num_cores(),
            "offload server core out of range");
  NGX_CHECK(ring_capacity > 0 && ring_capacity <= kMaxRingCapacity,
            "ring capacity must fit inside the channel stride");
  const int n = machine.num_cores();
  channels_.reserve(n);
  for (int c = 0; c < n; ++c) {
    channels_.emplace_back(channel_base + kChannelStride * static_cast<std::uint64_t>(c),
                           ring_capacity);
  }
  seq_.assign(n, 0);
  prod_cache_.assign(static_cast<std::size_t>(n), ProducerIndexCache{});
  lanes_.assign(static_cast<std::size_t>(n), QosLane::kNormal);
  labels_.assign(static_cast<std::size_t>(n), std::string());
  h_tenant_latency_.assign(static_cast<std::size_t>(n), nullptr);
}

std::uint64_t OffloadEngine::CachedPushReserve(Env& client_env, int client,
                                               std::uint32_t n) {
  Channel& ch = channels_[client];
  ProducerIndexCache& pc = prod_cache_[static_cast<std::size_t>(client)];
  std::uint64_t occupancy = pc.head - pc.cached_tail;
  if (occupancy + n > ch.ring_capacity()) {
    // The cached tail says the ring is full -- but it only ever lags the
    // real tail, so refresh it (this is the one timed read of the
    // server-written tail line) before concluding backpressure is real.
    pc.cached_tail = ch.RingTail(client_env);
    occupancy = pc.head - pc.cached_tail;
    if (occupancy + n > ch.ring_capacity()) {
      StallOnFullRing(client_env, client);
      // The stall's drain emptied this client's ring; the re-read models the
      // producer's spin loop observing the tail catch up.
      pc.cached_tail = ch.RingTail(client_env);
      occupancy = pc.head - pc.cached_tail;
    }
  }
  return occupancy;
}

void OffloadEngine::BindInstruments() {
  MetricsRegistry& m = machine_->telemetry().metrics();
  const std::string shard = std::to_string(shard_id_);
  for (const OffloadOp op : {OffloadOp::kMalloc, OffloadOp::kFree, OffloadOp::kUsableSize,
                             OffloadOp::kFlush, OffloadOp::kMallocBatch,
                             OffloadOp::kDonateSpan, OffloadOp::kRequestSpans,
                             OffloadOp::kOfferSpans, OffloadOp::kReturnSpan,
                             OffloadOp::kRefillStash}) {
    h_sync_latency_[static_cast<int>(op)] =
        &m.GetHistogram("offload.sync_latency", {{"shard", shard}, {"op", OpName(op)}});
  }
  h_queue_wait_ = &m.GetHistogram("offload.sync_queue_wait", {{"shard", shard}});
  h_drain_batch_ = &m.GetHistogram("offload.drain_batch", {{"shard", shard}});
  h_ring_occupancy_ = &m.GetHistogram("offload.ring_occupancy", {{"shard", shard}});
  h_free_batch_ = &m.GetHistogram("offload.free_batch", {{"shard", shard}});
  // Tenant SLO series: one histogram per labeled client, labeled by tenant
  // only (no shard/op) so HistogramTotal({{"tenant", name}}) sums one
  // tenant's sync latency across every shard it talks to.
  for (std::size_t c = 0; c < labels_.size(); ++c) {
    if (!labels_[c].empty()) {
      h_tenant_latency_[c] =
          &m.GetHistogram("offload.sync_latency", {{"tenant", labels_[c]}});
    }
  }
  instruments_bound_ = true;
}

void OffloadEngine::DrainRing(Env& server_env, int client, std::uint32_t max_entries) {
  const std::uint64_t t0 = server_env.now();
  const auto consume = [&](std::uint64_t entry) {
        // Tag 0 = the historical raw-address kFree encoding; other tags carry
        // the op in the top byte (currently only kRefillStash rides tagged).
        const std::uint64_t tag = entry >> 56;
        const std::uint64_t c0 = server_env.now();
        if (tag == 0) {
          server_->HandleRequest(server_env, client, OffloadOp::kFree, entry);
        } else {
          if (static_cast<OffloadOp>(tag) == OffloadOp::kRefillStash) {
            ++stats_.refill_ops;
          }
          server_->HandleRequest(server_env, client, static_cast<OffloadOp>(tag),
                                 entry & kRingArgMask);
        }
        // Every drained entry is a free or a refill, both carve-path work.
        NoteCarveCycles(server_env.now() - c0);
        ++stats_.async_ops;
      };
  // A bounded window (lane admission) leaves the tail of a long bulk
  // backlog for a later drain; 0 drains everything.
  const std::uint32_t n = channels_[client].ServerDrainRingBounded(
      server_env, max_entries > 0 ? max_entries : kMaxRingCapacity, consume);
  if (FlightRecorder* rec = Recorder()) {
    // The whole drain window (including empty polls reaching this far) is
    // server-busy time; the carve handlers inside it were already attributed
    // through NoteCarveCycles, so drain overhead falls out as the difference.
    rec->AddCycles(FlightRecorder::kServerBusy, server_env.now() - t0);
  }
  if (n > 0 && Recording()) {
    h_drain_batch_->Record(n);
    Telemetry& tel = machine_->telemetry();
    if (tel.tracing()) {
      tel.tracer().Complete("drain", server_core_, t0, server_env.now() - t0);
    }
  }
}

std::uint64_t OffloadEngine::SyncRequest(Env& client_env, OffloadOp op, std::uint64_t arg) {
  assert(server_ != nullptr);
  const int client = client_env.core_id();
  assert(client != server_core_ && "the server core cannot issue offload requests");
  Channel& ch = channels_[client];
  const std::uint64_t seq = ++seq_[client];
  const std::uint64_t t0 = client_env.now();
  if (FlightRecorder* rec = Recorder()) {
    rec->matrix().NoteSync(client, shard_id_);
  }

  // Client publishes the request.
  ch.ClientSend(client_env, seq, op, arg);
  const std::uint64_t send_time = client_env.now();

  // The spinning server drains pending async frees during its idle window,
  // starting from its own clock: free processing that fits before the
  // request arrives never delays the malloc (Section 3.1.2's asynchronous
  // free phase). The request itself is then served no earlier than the send
  // and no earlier than the server finishes that backlog.
  Core& server = machine_->core(server_core_);
  Env server_env = ServerEnv();
  const std::uint64_t drain0 = server_env.now();
  DrainRing(server_env, client);
  // Idle-window background work (watermark rebalancing): like the drain, it
  // starts from the server's own clock, so refills that fit before the
  // request arrives never delay the malloc.
  if (post_drain_hook_) {
    post_drain_hook_(server_env);
  }
  const std::uint64_t drain_cycles = server_env.now() - drain0;
  // How long the request sat behind the server's backlog (other clients'
  // requests and drained frees) before service could start.
  std::uint64_t queue_wait = server.now() > send_time ? server.now() - send_time : 0;
  // Priority admission (DESIGN.md §15): with lane admission on, a
  // latency-lane sync is served against the shadow no-bulk schedule -- it
  // only ever queues behind latency/normal work, never behind a throughput
  // tenant's free batches or malloc bursts (which a priority-aware server
  // would defer past this doorbell). The shadow mirrors the real schedule's
  // structure: the drain + rebalancer window runs from the shadow server's
  // OWN clock (idle-window work that fits before the doorbell is free), and
  // service starts no earlier than the send and no earlier than that
  // backlog ends.
  const QosLane lane = lanes_[static_cast<std::size_t>(client)];
  const bool shadow_serve = lane_quantum_ > 0 && lane != QosLane::kBulk;
  const std::uint64_t shadow_busy_end = shadow_now_ + drain_cycles;
  const std::uint64_t shadow_start = std::max(shadow_busy_end, send_time);
  if (lane_quantum_ > 0 && lane == QosLane::kLatency) {
    queue_wait = std::min(queue_wait, shadow_start - send_time);
  }
  if (queue_wait > 0) {
    ++stats_.server_busy_waits;
  }
  server.AdvanceTo(send_time);
  const std::uint64_t busy0 = server_env.now();
  server_env.Work(kPollWork);

  const std::uint64_t service_start = server_env.now();
  const Channel::Request req = ch.ServerReadRequest(server_env);
  assert(req.seq == seq);
  const std::uint64_t handle_start = server_env.now();
  const std::uint64_t result = server_->HandleRequest(server_env, client, req.op, req.arg);
  if (IsCarveOp(req.op)) {
    NoteCarveCycles(server_env.now() - handle_start);
  }
  ch.ServerRespond(server_env, seq, result);

  // Advance the shadow schedule by this request's service window (poll +
  // handler + respond): latency/normal work occupies the preemptive server
  // too, while its idle-window drain was already folded into
  // shadow_busy_end. Clamped to the real completion -- the real schedule,
  // which ran strictly more work first, bounds the preemptive one.
  std::uint64_t publish = server_env.now();
  if (shadow_serve) {
    const std::uint64_t window = server_env.now() - busy0;
    shadow_now_ = std::min(shadow_start + window, publish);
    if (lane == QosLane::kLatency) {
      // The response was published at the shadow point; the real server
      // clock still pays the deferred bulk work after it.
      publish = shadow_now_;
    }
  }
  if (FlightRecorder* rec = Recorder()) {
    rec->AddCycles(FlightRecorder::kServerBusy, server_env.now() - busy0);
    // What the spin below will cost the client: its clock jump to the
    // server's publish point. Only counted inside a client op so the
    // rebalancer's own control round trips stay out of the table.
    if (rec->InClientOp(client) && publish > client_env.now()) {
      rec->AddCycles(FlightRecorder::kSyncStall, publish - client_env.now());
    }
  }
  // Client spins until the response is visible, then reads it.
  machine_->core(client).AdvanceTo(publish);
  const std::uint64_t out = ch.ClientReceive(client_env, seq);
  ++stats_.sync_requests;
  if (Recording()) {
    h_sync_latency_[static_cast<int>(op)]->Record(client_env.now() - t0);
    if (Histogram* ht = h_tenant_latency_[static_cast<std::size_t>(client)]) {
      ht->Record(client_env.now() - t0);
    }
    h_queue_wait_->Record(queue_wait);
    Telemetry& tel = machine_->telemetry();
    if (tel.tracing()) {
      tel.tracer().Complete(OpName(op), server_core_, service_start,
                            server_env.now() - service_start);
      tel.tracer().Complete("sync_request", client, t0, client_env.now() - t0);
    }
  }
  return out;
}

std::uint64_t OffloadEngine::Kick(Env& client_env, int client, std::uint32_t max_entries) {
  machine_->core(server_core_).AdvanceTo(client_env.now());
  Env server_env = ServerEnv();
  server_env.Work(kPollWork);
  DrainRing(server_env, client, max_entries);
  if (post_drain_hook_) {
    post_drain_hook_(server_env);
  }
  return server_env.now();
}

std::uint64_t OffloadEngine::PushEntry(Env& client_env, int client, std::uint64_t entry) {
  // Staged frees sit in the very slots past the head this push would write:
  // publish them first, so nothing is overwritten and ring order is program
  // order.
  PublishStaged(client_env);
  Channel& ch = channels_[client];
  ProducerIndexCache& pc = prod_cache_[static_cast<std::size_t>(client)];
  std::uint64_t occupancy;
  if (producer_cache_) {
    CachedPushReserve(client_env, client, 1);
    // The eager-drain policy is the SERVER noticing its ring filling during
    // its poll loop, so it keys off the true occupancy -- an untimed host
    // read standing in for the server's own polling (whose timed reads
    // happen inside DrainRing) -- not the producer's deliberately stale view.
    occupancy = pc.head - machine_->memory().Read<std::uint64_t>(ch.base() + kRingTailOff);
    ch.RingStore(client_env, pc.head, entry);
    ch.RingPublish(client_env, pc.head + 1);
  } else {
    const std::uint64_t space = ch.RingSpace(client_env);
    occupancy = ch.ring_capacity() - space;
    if (space == 0) {
      StallOnFullRing(client_env, client);
    }
    ch.RingPush(client_env, entry);
  }
  ++pc.head;
  ++stats_.ring_doorbells;
  ++stats_.async_enqueued;
  if (Recording()) {
    h_ring_occupancy_->Record(occupancy);
  }
  return occupancy;
}

void OffloadEngine::AsyncRequest(Env& client_env, OffloadOp op, std::uint64_t arg0) {
  assert(server_ != nullptr);
  assert(op == OffloadOp::kFree && "only frees are fire-and-forget");
  const int client = client_env.core_id();
  if (FlightRecorder* rec = Recorder()) {
    rec->matrix().NoteAsync(client, shard_id_, 1);
  }
  const std::uint64_t occupancy = PushEntry(client_env, client, arg0);
  if (eager_drain_at_ > 0 && occupancy + 1 >= eager_drain_at_) {
    // The spinning server notices the filling ring and drains it in the
    // background -- the client walks away after the push. A bulk-lane
    // client's eager window is admitted in lane quanta (EagerCap);
    // correctness does not need a full drain here, the ring-full stall is
    // still the backstop.
    Kick(client_env, client, EagerCap(client));
  }
}

std::uint32_t OffloadEngine::StageFree(Env& client_env, std::uint64_t addr,
                                       std::uint32_t batch) {
  assert(server_ != nullptr);
  assert((addr & ~kRingArgMask) == 0 && "a staged free is a raw (tag 0) address");
  NGX_CHECK(batch > 0 && batch <= channels_[0].ring_capacity(),
            "a staged free batch must fit in one ring");
  const int client = client_env.core_id();
  ProducerIndexCache& pc = prod_cache_[static_cast<std::size_t>(client)];
  // The slot past the staged run must be free. A full ring stalls on the
  // published entries; the staged ones (at most batch - 1) always fit after
  // that drain.
  CachedPushReserve(client_env, client, pc.staged + 1);
  channels_[client].RingStore(client_env, pc.head + pc.staged, addr);
  ++pc.staged;
  ++stats_.staged_frees;
  return pc.staged == batch ? PublishStaged(client_env) : 0;
}

std::uint32_t OffloadEngine::PublishStaged(Env& client_env) {
  const int client = client_env.core_id();
  ProducerIndexCache& pc = prod_cache_[static_cast<std::size_t>(client)];
  const std::uint32_t n = pc.staged;
  if (n == 0) {
    return 0;
  }
  if (FlightRecorder* rec = Recorder()) {
    rec->matrix().NoteAsync(client, shard_id_, n);
  }
  Channel& ch = channels_[client];
  if (Recording()) {
    h_ring_occupancy_->Record(
        pc.head - machine_->memory().Read<std::uint64_t>(ch.base() + kRingTailOff));
    h_free_batch_->Record(n);
  }
  pc.head += n;
  pc.staged = 0;
  ch.RingPublish(client_env, pc.head);
  ++stats_.ring_doorbells;
  ++stats_.free_batches;
  stats_.async_enqueued += n;
  // The doorbell kicks the drain: the batch is served in the server's next
  // poll window instead of waiting for this client's next sync request, so
  // the ring never fills between them.
  Kick(client_env, client, EagerCap(client));
  return n;
}

std::uint64_t OffloadEngine::AsyncRequestKicked(Env& client_env, OffloadOp op,
                                                std::uint64_t arg) {
  assert(server_ != nullptr);
  NGX_CHECK((arg & ~kRingArgMask) == 0, "tagged ring arg must leave the top byte free");
  const int client = client_env.core_id();
  if (FlightRecorder* rec = Recorder()) {
    rec->matrix().NoteAsync(client, shard_id_, 1);
  }
  PushEntry(client_env, client, RingEntryWord(op, arg));
  // The kick: the whole service overlaps with the client's subsequent work,
  // which is the point of the stash pipeline.
  const std::uint64_t kick0 =
      std::max(machine_->core(server_core_).now(), client_env.now());
  std::uint64_t ready = Kick(client_env, client, 0);
  // Priority admission, same rule as SyncRequest: a latency tenant's kicked
  // refill is served against the shadow no-bulk schedule, so its stash half
  // is ready without standing behind a throughput tenant's deferred
  // backlog. Normal-lane windows advance the shadow without observing it.
  if (lane_quantum_ > 0 &&
      lanes_[static_cast<std::size_t>(client)] != QosLane::kBulk) {
    const std::uint64_t window = ready - kick0;
    shadow_now_ =
        std::min(std::max(shadow_now_, client_env.now()) + window, ready);
    if (lanes_[static_cast<std::size_t>(client)] == QosLane::kLatency) {
      ready = shadow_now_;
    }
  }
  return ready;
}

void OffloadEngine::StallOnFullRing(Env& client_env, int client) {
  // Backpressure: the server must drain before the client can continue.
  ++stats_.ring_full_stalls;
  Telemetry& tel = machine_->telemetry();
  if (tel.tracing()) {
    tel.tracer().Instant("ring_full", client, client_env.now());
  }
  const std::uint64_t done = Kick(client_env, client, 0);
  if (FlightRecorder* rec = Recorder()) {
    // The backpressure cost the client is about to pay: its clock jump to
    // the drain's finish.
    if (rec->InClientOp(client) && done > client_env.now()) {
      rec->AddCycles(FlightRecorder::kRingWait, done - client_env.now());
    }
  }
  machine_->core(client).AdvanceTo(done);
}

void OffloadEngine::DrainAll() {
  Env server_env = ServerEnv();
  if (lane_quantum_ > 0) {
    // Lane-priority service order: latency rings drain before normal before
    // bulk, so a latency tenant's stragglers never wait out a bulk backlog
    // even in the final sweep. Within a lane, client id order keeps the
    // schedule deterministic. Full drains -- admission quanta bound
    // BACKGROUND windows, not teardown.
    for (int lane = 0; lane < kQosLaneCount; ++lane) {
      for (int c = 0; c < machine_->num_cores(); ++c) {
        if (c == server_core_ ||
            static_cast<int>(lanes_[static_cast<std::size_t>(c)]) != lane) {
          continue;
        }
        server_env.Work(kPollWork);
        DrainRing(server_env, c);
      }
    }
  } else {
    for (int c = 0; c < machine_->num_cores(); ++c) {
      if (c == server_core_) {
        continue;
      }
      server_env.Work(kPollWork);
      DrainRing(server_env, c);
    }
  }
  if (post_drain_hook_) {
    post_drain_hook_(server_env);
  }
}

}  // namespace ngx
