// OffloadEngine: the allocator's "own room" -- a dedicated core that serves
// malloc/free requests from application cores over simulated shared memory.
//
// Timing model: one server clock per engine. The server core runs one handler
// at a time and serves requests in the order they reach it, whichever client
// sent them; the scheduler's step contract (src/sim/scheduler.h) makes that
// send order. A sync request's service starts at max(server clock, client
// send time): a request sent while a handler runs waits for it to end,
// and the client waits until the response is published. Before the service,
// the window drains this client's ring and runs the post-drain hook, from the
// server's own clock -- with no lower bound at each entry's push, so an
// unbatched free whose push is later than the server clock is served before
// it was pushed, the one exception to send order. Messages nobody answers
// ride a per-client ring, so their sender only stalls on a full ring. Every
// producer keeps a copy of the server's tail in a register: a push is its
// entry store alone, and the tail line is re-read only when that copy says
// the ring is full. The ring has no head index (channel.h): a drain
// costs the server the entry lines it consumes and no index line. The shard
// is malloc-first: a published free batch, or a posted span return, queues
// with its doorbell time and drains in the server's idle windows, entry by
// entry, only while the server clock is before the next sync request's send
// time -- a malloc waits out at most the one entry in progress, and a drain
// that finds the send reached touches no line. Unbatched entries drain before
// their own client's sync requests, on kicks and on DrainAll (in client
// order). Queueing among multiple clients emerges from the shared server
// clock (Section 3.1.1's granularity concern made concrete).
#ifndef NGX_SRC_OFFLOAD_OFFLOAD_ENGINE_H_
#define NGX_SRC_OFFLOAD_OFFLOAD_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/offload/channel.h"

namespace ngx {

// Implemented by the server-side allocator (NgxAllocator's heap).
class OffloadServer {
 public:
  virtual ~OffloadServer() = default;
  // Handles one request on the server core. For kMallocBatch the engine
  // passes the client id in `client`.
  virtual std::uint64_t HandleRequest(Env& server_env, int client, OffloadOp op,
                                      std::uint64_t arg) = 0;
};

struct OffloadEngineStats {
  std::uint64_t sync_requests = 0;
  std::uint64_t async_ops = 0;
  std::uint64_t ring_full_stalls = 0;
  std::uint64_t server_busy_waits = 0;  // sync requests served after their send
  // Published runs (one per push / per published free batch), each one
  // store that marks the run's last entry: the publishes batched frees
  // exist to amortize.
  std::uint64_t ring_doorbells = 0;
  // Entries made visible on the rings (a staged free counts when its batch
  // publishes); async_enqueued - async_ops is the undrained backlog.
  std::uint64_t async_enqueued = 0;
  // Batched remote frees (StageFree): entries staged, and the batches that
  // published them -- one doorbell each.
  std::uint64_t staged_frees = 0;
  std::uint64_t free_batches = 0;
  // Tagged kRefillStash entries served out of drained rings (the stash
  // pipeline's background refills; a subset of async_ops).
  std::uint64_t refill_ops = 0;
  // Server-core cycles spent inside the heap's carve/classify handlers
  // (kMalloc / kMallocBatch / kRefillStash / kFree) -- the per-op server
  // cost the segment-heap rewrite targets. The flight recorder's
  // kServerCarve bucket attributes the same cycles.
  std::uint64_t carve_cycles = 0;
};

class OffloadEngine {
 public:
  // `channel_base` must point at num_clients * kChannelStride bytes of
  // simulated memory reserved for mailboxes (one block per core).
  OffloadEngine(Machine& machine, int server_core, Addr channel_base,
                std::uint32_t ring_capacity);

  void set_server(OffloadServer* server) { server_ = server; }
  int server_core() const { return server_core_; }
  Machine& machine() { return *machine_; }

  // Round-trip request from `client_env`'s core. Returns the result word.
  // The request's window drains this client's own ring (its frees precede
  // its request), runs the post-drain hook and serves the request, all on
  // the server clock; the service starts at max(server clock, send). When
  // the server is idle at the send, the drain and hook run in its idle time
  // before the send, followed by queued free batches in doorbell order: it
  // starts an entry only while its clock is before the send time and no
  // earlier than the entry's doorbell, and pays one kPollWork mailbox check
  // per entry.
  std::uint64_t SyncRequest(Env& client_env, OffloadOp op, std::uint64_t arg);

  // Fire-and-forget (used for free). Stalls only when the ring is full.
  void AsyncRequest(Env& client_env, OffloadOp op, std::uint64_t arg0);

  // One-way tagged message that waits for the server's idle windows (the
  // control plane's kReturnSpan): pushes one tagged entry on the client's
  // ring and queues the ring's doorbell at the push, like a published free
  // batch. The server handles it at the first idle window that reaches the
  // doorbell, at this client's next sync request, or at DrainAll -- not on
  // another client's kick, which would run its clock ahead. The sender
  // waits only on a full ring, whose backpressure drain, like any push's,
  // takes the ring whole.
  void Post(Env& client_env, OffloadOp op, std::uint64_t arg);

  // Batched fire-and-forget free (DESIGN.md §7): stores `addr` straight into
  // the next slot of the client's ring, past its register-held head, without
  // publishing it. The `batch`-th staged entry publishes the batch
  // (PublishStaged). Stalls like AsyncRequest only when the slot is still
  // occupied. Returns the entries this call published (0 or `batch`).
  std::uint32_t StageFree(Env& client_env, std::uint64_t addr, std::uint32_t batch);

  // Publishes the client's staged frees with one store that marks the last
  // of them (one doorbell) and queues the doorbell with its time; the batch
  // drains in the server's idle windows before later sync requests
  // (SyncRequest), so it never runs the server clock ahead of a waiting
  // malloc. If the ring still holds an earlier batch no idle window
  // reached, this doorbell drains the whole ring on the server's own clock
  // instead, so the ring cannot fill between doorbells. The client never
  // waits. Every other push to the ring publishes first, so ring order is
  // program order. Returns the entries published (0 = nothing staged).
  std::uint32_t PublishStaged(Env& client_env);

  // Non-blocking tagged request (the stash pipeline's kRefillStash): pushes
  // one tagged entry on the client's ring, then serves the ring in the
  // server's drain window -- on the server's OWN clock, starting no earlier
  // than the doorbell store, WITHOUT advancing the client to the server's
  // finish. The service overlaps with whatever the client does next; callers
  // observe completion through state the server handler publishes (the stash
  // publish word). Returns the server clock after the drain.
  std::uint64_t AsyncRequestKicked(Env& client_env, OffloadOp op, std::uint64_t arg);

  // Processes every pending async entry of every client on the server core,
  // in client order.
  void DrainAll();

  const OffloadEngineStats& stats() const { return stats_; }

  // Shard index used to label this engine's telemetry (the fabric sets it;
  // a standalone engine reports as shard 0).
  void set_shard_id(int s) { shard_id_ = s; }

  // Invoked on the server's Env in its idle windows: after the drain in each
  // sync request's window (ahead of the queued free batches), after each kick
  // and after DrainAll. The watermark rebalancer piggybacks
  // refill/offer/return traffic here so it never rides the malloc critical
  // path. Null (the default) costs nothing.
  void set_post_drain_hook(std::function<void(Env&)> hook) {
    post_drain_hook_ = std::move(hook);
  }

  // Background drain threshold: when > 0 and a push leaves at least this
  // many entries pending, the spinning server drains the ring on its OWN
  // clock (an AsyncRequestKicked-style kick, no client stall) instead of
  // letting it fill to the StallOnFullRing backpressure point. Models the
  // server noticing a filling ring during its poll loop. 0 (default) keeps
  // the historical stall-only behaviour bit-identical.
  void set_eager_drain_at(std::uint32_t n) { eager_drain_at_ = n; }

 private:
  Env ServerEnv() { return Env(*machine_, server_core_); }
  // Drains `client`'s ring on the server clock. A `deadline` makes it a
  // malloc-first idle window: each entry first pays a kPollWork mailbox
  // check, and no entry starts once the clock reaches the deadline.
  void DrainRing(Env& server_env, int client, std::uint64_t deadline = kNoDeadline);
  // Works through the queued doorbells, oldest first, in the idle window
  // that ends at `deadline` (see SyncRequest).
  void DrainDoorbells(Env& server_env, std::uint64_t deadline);
  // Queues `client`'s doorbell at time `at` -- a Post's, or else a free
  // batch's -- in time order. Its ring's earlier doorbell is dropped: the
  // drain that reaches the new one takes the ring whole, so no entry drains
  // before its push.
  void QueueDoorbell(int client, std::uint64_t at, bool post);
  // Entries published on `client`'s ring and not yet drained (an untimed
  // host read standing in for the server's own polling).
  std::uint64_t Published(int client) const;
  // One pass of the server's poll loop ahead of a drain, booked as
  // server-busy time.
  void Poll(Env& server_env);
  // The spinning server notices a doorbell and drains `client`'s ring in
  // its poll loop on its OWN clock: service starts no earlier than the
  // doorbell store and the client is not advanced to the finish. Returns
  // the server clock after the window.
  std::uint64_t Kick(Env& client_env, int client);
  // Pushes one tagged entry (the op in its top byte) on the client's ring,
  // booked as one async op in the traffic matrix.
  void PushTagged(Env& client_env, OffloadOp op, std::uint64_t arg);
  // Pushes one entry (publishing any staged frees first), stalling while the
  // ring is full. Returns the true ring occupancy the push found.
  std::uint64_t PushEntry(Env& client_env, int client, std::uint64_t entry);
  // Ring-full backpressure: runs the server's drain for `client` and syncs
  // the client clock to it.
  void StallOnFullRing(Env& client_env, int client);
  // Lazily binds the metric handles (first record after telemetry enable).
  void BindInstruments();
  bool Recording() {
    if (!machine_->telemetry().enabled()) {
      return false;
    }
    if (!instruments_bound_) {
      BindInstruments();
    }
    return true;
  }
  // Flight-recorder handle, or null when the recorder is off. Observational:
  // every use reads clocks/counters and never advances them.
  FlightRecorder* Recorder() {
    Telemetry& tel = machine_->telemetry();
    return tel.recording() ? &tel.recorder() : nullptr;
  }

  // Per-client producer registers (host-side mirrors of simulated state;
  // the standard SPSC ring idiom, DESIGN.md §7). `head` ends the last
  // published run, whatever the push path -- the ring keeps no head in
  // memory, and a drain reads the entries below it; `cached_tail` lags the
  // server's true tail, which is safe because a stale tail only
  // UNDER-estimates free space, never over; `staged` counts entries stored
  // past `head` and not yet published, the newest of them `last_staged`,
  // whose slot the publish store marks.
  struct ProducerIndexCache {
    std::uint64_t head = 0;
    std::uint64_t cached_tail = 0;
    std::uint32_t staged = 0;
    std::uint64_t last_staged = 0;
  };
  // Space check for an n-entry push against the cached tail: the tail line
  // -- which the server rewrites on every drain -- is re-read only when the
  // cached copy says the ring is full (at most one stale-full false positive
  // per capacity pushes, since the real tail only ever advances), and a
  // ring that is really full stalls. Returns the pre-push ring occupancy
  // from the producer's view.
  std::uint64_t CachedPushReserve(Env& client_env, int client, std::uint32_t n);

  // Host-side accounting of server cycles spent in carve-path handlers.
  void NoteCarveCycles(std::uint64_t cycles) {
    stats_.carve_cycles += cycles;
    FlightRecorder* rec = Recorder();
    if (rec != nullptr && cycles > 0) {
      rec->AddCycles(FlightRecorder::kServerCarve, cycles);
    }
  }

  Machine* machine_;
  int server_core_;
  int shard_id_ = 0;
  OffloadServer* server_ = nullptr;
  std::uint32_t eager_drain_at_ = 0;
  std::vector<ProducerIndexCache> prod_cache_;  // one per client core
  std::vector<Channel> channels_;
  std::vector<std::uint64_t> seq_;  // per-client request sequence numbers
  // Published free batches and posts waiting for an idle window, in time
  // order, so a post from a server clock that runs ahead never blocks the
  // client batches behind it: at most one per client, since the drain that
  // reaches a doorbell takes its ring whole. An entry whose ring another
  // drain emptied is skipped when reached. A vector, not a deque: it stops
  // allocating once it has held every client, where a deque's push/pop
  // churn allocates nodes for the whole run.
  struct Doorbell {
    int client;
    std::uint64_t at;  // sender clock at the publish store
    bool post;         // a Post; otherwise a free batch
  };
  std::vector<Doorbell> doorbells_;
  OffloadEngineStats stats_;
  std::function<void(Env&)> post_drain_hook_;

  // Telemetry handles (host-side observation only; see src/telemetry/).
  // Sync latency is split per op; index = static_cast<int>(OffloadOp).
  bool instruments_bound_ = false;
  Histogram* h_sync_latency_[kOffloadOpCount] = {};
  Histogram* h_queue_wait_ = nullptr;
  Histogram* h_drain_batch_ = nullptr;
  Histogram* h_ring_occupancy_ = nullptr;
  Histogram* h_free_batch_ = nullptr;  // entries per published free batch
};

}  // namespace ngx

#endif  // NGX_SRC_OFFLOAD_OFFLOAD_ENGINE_H_
