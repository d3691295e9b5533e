// OffloadEngine: the allocator's "own room" -- a dedicated core that serves
// malloc/free requests from application cores over simulated shared memory.
//
// Timing model: requests are serialized on the server core's clock. A sync
// request starts service at max(server-free-time, client-send-time); the
// client then waits until the response is published. Async frees ride a
// per-client ring and are drained whenever the server runs (before each sync
// request, on a doorbell kick and on explicit Drain), so clients only stall
// on a full ring. Queueing among multiple clients emerges from the shared
// server clock (Section 3.1.1's granularity concern made concrete).
#ifndef NGX_SRC_OFFLOAD_OFFLOAD_ENGINE_H_
#define NGX_SRC_OFFLOAD_OFFLOAD_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
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
  std::uint64_t server_busy_waits = 0;  // requests that queued behind the server
  // Release-stores of a ring head (one per push / per published free batch):
  // the cache-line transfers batched frees exist to amortize.
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
  std::uint64_t SyncRequest(Env& client_env, OffloadOp op, std::uint64_t arg);

  // Fire-and-forget (used for free). Stalls only when the ring is full.
  void AsyncRequest(Env& client_env, OffloadOp op, std::uint64_t arg0);

  // Batched fire-and-forget free (DESIGN.md §7): stores `addr` straight into
  // the next slot of the client's ring, past its register-held head, without
  // publishing it. The `batch`-th staged entry publishes the batch
  // (PublishStaged). Stalls like AsyncRequest only when the slot is still
  // occupied. Returns the entries this call published (0 or `batch`).
  std::uint32_t StageFree(Env& client_env, std::uint64_t addr, std::uint32_t batch);

  // Publishes the client's staged frees with one head release-store (one
  // doorbell) and kicks the server's background drain on its own clock: the
  // client never waits, and a bulk-lane drain stays bounded by the lane
  // quantum. Every other push to the ring publishes first, so ring order is
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

  // Processes every pending async entry of every client on the server core.
  void DrainAll();

  const OffloadEngineStats& stats() const { return stats_; }

  // Shard index used to label this engine's telemetry (the fabric sets it;
  // a standalone engine reports as shard 0).
  void set_shard_id(int s) { shard_id_ = s; }

  // Invoked on the server's Env after every ring drain -- the server's idle
  // window, before any pending sync request is served. The watermark
  // rebalancer piggybacks refill/offer/return traffic here so it never rides
  // the malloc critical path. Null (the default) costs nothing.
  void set_post_drain_hook(std::function<void(Env&)> hook) {
    post_drain_hook_ = std::move(hook);
  }

  // Background drain threshold: when > 0 and a RingPush leaves at least this
  // many entries pending, the spinning server drains the ring on its OWN
  // clock (an AsyncRequestKicked-style kick, no client stall) instead of
  // letting it fill to the StallOnFullRing backpressure point. Models the
  // server noticing a filling ring during its poll loop. 0 (default) keeps
  // the historical stall-only behaviour bit-identical.
  void set_eager_drain_at(std::uint32_t n) { eager_drain_at_ = n; }

  // Producer-side index cache (the standard SPSC ring idiom; DESIGN.md §9):
  // each client keeps its own head index plus a cached copy of the server's
  // tail in registers, so a push is just the entry store and the head
  // release-store. The tail line -- which the server rewrites on every drain
  // and would otherwise transfer back on every occupancy check -- is
  // re-read only when the cached copy says the ring is full (at most one
  // stale-full false positive per capacity pushes, since the real tail only
  // ever advances). Off by default; the stash pipeline enables it, and the
  // non-pipelined protocol stays byte-for-byte identical to the seed.
  void set_producer_index_cache(bool on) { producer_cache_ = on; }

  // QoS lane this client's ring rides (DESIGN.md §15). Classification alone
  // never changes timing; it only takes effect once lane admission is on.
  void set_client_lane(int client, QosLane lane) {
    lanes_[static_cast<std::size_t>(client)] = lane;
  }

  // Tenant label for this client's telemetry: when non-empty, sync latency
  // is additionally recorded into offload.sync_latency{tenant=<label>}, the
  // per-tenant SLO series RunResult surfaces.
  void set_client_label(int client, std::string label) {
    labels_[static_cast<std::size_t>(client)] = std::move(label);
  }

  // Weighted lane admission (DESIGN.md §15). quantum > 0 turns lanes on:
  // (a) DrainAll serves rings in lane-priority order (latency, normal,
  // bulk), (b) a bulk-lane client's EAGER background drains admit at most
  // `quantum` entries per window, bounding how far one free batch can run
  // the server clock ahead of a latency tenant's next sync request, and
  // (c) a latency-lane request is served against the shadow no-bulk
  // schedule (see shadow_now_), so it never stands behind a bulk tenant's
  // deferred sync windows or free backlogs. Correctness-critical drains
  // (sync-bound, kicked refills, ring-full backpressure) always drain
  // fully. 0 (default) = historical admission, bit-identical whatever the
  // lane classification says.
  void set_lane_admission(std::uint32_t quantum) { lane_quantum_ = quantum; }

 private:
  Env ServerEnv() { return Env(*machine_, server_core_); }
  // Drains `client`'s ring on the server clock. max_entries = 0 drains
  // everything; > 0 is the bounded lane-admission window.
  void DrainRing(Env& server_env, int client, std::uint32_t max_entries = 0);
  // Entry budget for a background (eager) drain of `client`'s ring: the
  // bulk lane's quantum when admission is on, else 0 (unbounded).
  std::uint32_t EagerCap(int client) const {
    return (lane_quantum_ > 0 &&
            lanes_[static_cast<std::size_t>(client)] == QosLane::kBulk)
               ? lane_quantum_
               : 0;
  }
  // The spinning server notices a doorbell and drains `client`'s ring in
  // its poll loop on its OWN clock: service starts no earlier than the
  // doorbell store and the client is not advanced to the finish.
  // max_entries as in DrainRing. Returns the server clock after the window.
  std::uint64_t Kick(Env& client_env, int client, std::uint32_t max_entries);
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

  // Per-client producer registers (host-side mirrors of simulated state).
  // `head` shadows the value the client last release-stored, whatever the
  // push path; `cached_tail` lags the server's true tail, which is safe
  // because a stale tail only UNDER-estimates free space, never over (the
  // index-cache pushes and StageFree consult it); `staged` counts entries
  // stored past `head` and not yet published.
  struct ProducerIndexCache {
    std::uint64_t head = 0;
    std::uint64_t cached_tail = 0;
    std::uint32_t staged = 0;
  };
  // Space check + stale-tail refresh + stall for an n-entry cached push;
  // returns the pre-push ring occupancy from the producer's view.
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
  std::uint32_t lane_quantum_ = 0;  // 0 = lane admission off
  std::vector<QosLane> lanes_;      // per-client ring lane
  std::vector<std::string> labels_;  // per-client tenant label ("" = none)
  // Shadow no-bulk server clock (lane admission on only): the schedule a
  // priority-aware allocator core would run, where every bulk-lane window
  // (its sync services and its drained free backlogs) is deferred behind
  // latency/normal work. Only latency- and normal-lane request windows
  // advance it; it is clamped to the real server clock (the real schedule
  // bounds the preemptive one from above, since it does strictly more work
  // first). A latency-lane client observes its completion against this
  // clock; everyone else -- and the real server core -- keeps the
  // historical schedule, so the model stays work-conserving: the deferred
  // bulk cycles were still paid on the real clock, the latency tenant just
  // did not stand behind them.
  std::uint64_t shadow_now_ = 0;
  bool producer_cache_ = false;
  std::vector<ProducerIndexCache> prod_cache_;  // one per client core
  std::vector<Channel> channels_;
  std::vector<std::uint64_t> seq_;  // per-client request sequence numbers
  OffloadEngineStats stats_;
  std::function<void(Env&)> post_drain_hook_;

  // Telemetry handles (host-side observation only; see src/telemetry/).
  // Sync latency is split per op; index = static_cast<int>(OffloadOp).
  bool instruments_bound_ = false;
  Histogram* h_sync_latency_[kOffloadOpCount] = {};
  // Per-client tenant SLO series (null for unlabeled clients).
  std::vector<Histogram*> h_tenant_latency_;
  Histogram* h_queue_wait_ = nullptr;
  Histogram* h_drain_batch_ = nullptr;
  Histogram* h_ring_occupancy_ = nullptr;
  Histogram* h_free_batch_ = nullptr;  // entries per published free batch
};

}  // namespace ngx

#endif  // NGX_SRC_OFFLOAD_OFFLOAD_ENGINE_H_
