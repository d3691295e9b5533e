#include "src/offload/offload_engine.h"

#include <algorithm>
#include <cassert>
#include <iterator>
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
  instruments_bound_ = true;
}

void OffloadEngine::DrainRing(Env& server_env, int client, std::uint64_t deadline) {
  const std::uint64_t t0 = server_env.now();
  const auto consume = [&](std::uint64_t entry) {
        if (deadline != kNoDeadline) {
          // Malloc-first: the server checks its mailbox before each entry.
          server_env.Work(kPollWork);
        }
        // Tag 0 = the historical raw-address kFree encoding; other tags carry
        // the op in the top byte (kRefillStash kicks, kReturnSpan posts).
        const std::uint64_t tag = entry >> 56;
        const OffloadOp op = tag == 0 ? OffloadOp::kFree : static_cast<OffloadOp>(tag);
        if (op == OffloadOp::kRefillStash) {
          ++stats_.refill_ops;
        }
        const std::uint64_t c0 = server_env.now();
        server_->HandleRequest(server_env, client, op, entry & kRingArgMask);
        // Frees and refills are carve-path work; a span graft is not.
        if (IsCarveOp(op)) {
          NoteCarveCycles(server_env.now() - c0);
        }
        ++stats_.async_ops;
      };
  const std::uint32_t n = channels_[client].ServerDrainRing(
      server_env, prod_cache_[static_cast<std::size_t>(client)].head, consume, deadline);
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

void OffloadEngine::QueueDoorbell(int client, std::uint64_t at, bool post) {
  std::erase_if(doorbells_, [client](const Doorbell& d) { return d.client == client; });
  // Walk back past every later doorbell, except that a client batch stays
  // behind the batches queued before it: the scheduler publishes them in
  // send order, each from the middle of its step, so their times need not
  // be monotone.
  auto pos = doorbells_.end();
  while (pos != doorbells_.begin() && std::prev(pos)->at > at && (post || std::prev(pos)->post)) {
    --pos;
  }
  doorbells_.insert(pos, {client, at, post});
}

void OffloadEngine::DrainDoorbells(Env& server_env, std::uint64_t deadline) {
  Core& server = machine_->core(server_core_);
  while (!doorbells_.empty()) {
    const Doorbell bell = doorbells_.front();
    if (Published(bell.client) == 0) {
      doorbells_.erase(doorbells_.begin());  // another drain emptied the ring
      continue;
    }
    if (std::max(server.now(), bell.at) >= deadline) {
      return;
    }
    server.AdvanceTo(bell.at);
    DrainRing(server_env, bell.client, deadline);
    if (Published(bell.client) > 0) {
      return;  // the deadline fell inside this batch
    }
    doorbells_.erase(doorbells_.begin());
  }
}

std::uint64_t OffloadEngine::Published(int client) const {
  const std::uint64_t tail =
      machine_->memory().Read<std::uint64_t>(channels_[client].base() + kRingTailOff);
  return prod_cache_[static_cast<std::size_t>(client)].head - tail;
}

void OffloadEngine::Poll(Env& server_env) {
  const std::uint64_t t0 = server_env.now();
  server_env.Work(kPollWork);
  if (FlightRecorder* rec = Recorder()) {
    rec->AddCycles(FlightRecorder::kServerBusy, server_env.now() - t0);
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

  // The spinning server drains this client's pending async frees, then runs
  // the post-drain hook (watermark rebalancing): when the server is idle at
  // the send, both start from its own clock, so work that fits before the
  // request arrives never delays the malloc (Section 3.1.2's asynchronous
  // free phase).
  Core& server = machine_->core(server_core_);
  Env server_env = ServerEnv();
  DrainRing(server_env, client);
  if (post_drain_hook_) {
    post_drain_hook_(server_env);
  }
  // Other clients' free batches fill what is left of an idle window, and
  // stop at the send: the malloc waits out at most the entry in progress.
  DrainDoorbells(server_env, send_time);
  // Service starts at max(server clock, send).
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
  const std::uint64_t publish = server_env.now();

  // How long the request sat behind the server's backlog (earlier-sent
  // requests and drained frees, or its own drain) before service started.
  const std::uint64_t queue_wait = busy0 - send_time;
  if (queue_wait > 0) {
    ++stats_.server_busy_waits;
  }
  if (FlightRecorder* rec = Recorder()) {
    rec->AddCycles(FlightRecorder::kServerBusy, publish - busy0);
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
    h_queue_wait_->Record(queue_wait);
    Telemetry& tel = machine_->telemetry();
    if (tel.tracing()) {
      tel.tracer().Complete(OpName(op), server_core_, service_start, publish - service_start);
      tel.tracer().Complete("sync_request", client, t0, client_env.now() - t0);
    }
  }
  return out;
}

std::uint64_t OffloadEngine::Kick(Env& client_env, int client) {
  machine_->core(server_core_).AdvanceTo(client_env.now());
  Env server_env = ServerEnv();
  Poll(server_env);
  DrainRing(server_env, client);
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
  ProducerIndexCache& pc = prod_cache_[static_cast<std::size_t>(client)];
  CachedPushReserve(client_env, client, 1);
  // The eager-drain policy is the SERVER noticing its ring filling during
  // its poll loop, so it keys off the true occupancy, not the producer's
  // deliberately stale view.
  const std::uint64_t occupancy = Published(client);
  // A run of one: the entry's store is its publish.
  channels_[client].RingPublish(client_env, pc.head, entry);
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
  assert((arg0 & ~kRingArgMask) == 0 && "a ring free is a raw (tag 0) address");
  const int client = client_env.core_id();
  if (FlightRecorder* rec = Recorder()) {
    rec->matrix().NoteAsync(client, shard_id_, 1);
  }
  const std::uint64_t occupancy = PushEntry(client_env, client, arg0);
  if (eager_drain_at_ > 0 && occupancy + 1 >= eager_drain_at_) {
    // The spinning server notices the filling ring and drains it in the
    // background -- the client walks away after the push.
    Kick(client_env, client);
  }
}

void OffloadEngine::PushTagged(Env& client_env, OffloadOp op, std::uint64_t arg) {
  assert(server_ != nullptr);
  NGX_CHECK((arg & ~kRingArgMask) == 0, "tagged ring arg must fit below the publication bits");
  const int client = client_env.core_id();
  if (FlightRecorder* rec = Recorder()) {
    rec->matrix().NoteAsync(client, shard_id_, 1);
  }
  PushEntry(client_env, client, RingEntryWord(op, arg));
}

void OffloadEngine::Post(Env& client_env, OffloadOp op, std::uint64_t arg) {
  PushTagged(client_env, op, arg);
  QueueDoorbell(client_env.core_id(), client_env.now(), /*post=*/true);
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
  pc.last_staged = addr;
  ++pc.staged;
  ++stats_.staged_frees;
  if (pc.staged == batch) {
    // The publish is the only store of the batch's last entry.
    return PublishStaged(client_env);
  }
  channels_[client].RingStore(client_env, pc.head + pc.staged - 1, addr);
  return 0;
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
  const std::uint64_t backlog = Published(client);
  if (Recording()) {
    h_ring_occupancy_->Record(backlog);
    h_free_batch_->Record(n);
  }
  channels_[client].RingPublish(client_env, pc.head + n - 1, pc.last_staged);
  pc.head += n;
  pc.staged = 0;
  ++stats_.ring_doorbells;
  ++stats_.free_batches;
  stats_.async_enqueued += n;
  if (backlog > 0) {
    // The ring still holds entries no idle window finished: this doorbell
    // drains the whole ring, so the ring never fills between doorbells.
    Kick(client_env, client);
  } else {
    // Malloc-first: the batch waits for the server's idle windows
    // (SyncRequest).
    QueueDoorbell(client, client_env.now(), /*post=*/false);
  }
  return n;
}

std::uint64_t OffloadEngine::AsyncRequestKicked(Env& client_env, OffloadOp op,
                                                std::uint64_t arg) {
  PushTagged(client_env, op, arg);
  // The kick: the whole service overlaps with the client's subsequent work,
  // which is the point of the stash pipeline.
  return Kick(client_env, client_env.core_id());
}

void OffloadEngine::StallOnFullRing(Env& client_env, int client) {
  // Backpressure: the server must drain before the client can continue.
  ++stats_.ring_full_stalls;
  Telemetry& tel = machine_->telemetry();
  if (tel.tracing()) {
    tel.tracer().Instant("ring_full", client, client_env.now());
  }
  const std::uint64_t done = Kick(client_env, client);
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
  for (int c = 0; c < machine_->num_cores(); ++c) {
    if (c == server_core_) {
      continue;
    }
    Poll(server_env);
    DrainRing(server_env, c);
  }
  if (post_drain_hook_) {
    post_drain_hook_(server_env);
  }
}

}  // namespace ngx
