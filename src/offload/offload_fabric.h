// OffloadFabric: N allocator shards behind one home-shard router.
//
// The single OffloadEngine gives the allocator one dedicated core -- the
// paper's 4.2 prototype. The fabric generalizes that to N shards, each with
// its own server core and its own per-client mailbox/ring block, so Section
// 3.1.1's provisioning-granularity question ("one allocator core per
// application, per several applications, or per thread group?") becomes a
// measurable sweep instead of a hard-wired constant.
//
// Channel addressing generalizes from per-core to per-(client, shard):
// shard s's channel block for client c lives at
//   channel_base + s * num_cores * kChannelStride + c * kChannelStride,
// so every (client, shard) pair has private mailbox lines and no shard's
// traffic bounces another shard's lines.
//
// Mallocs go to the client's home shard (routing.h); frees must be sent to
// the shard that OWNS the block's heap partition (the caller resolves owner
// via its address->shard map) -- the fabric itself is ownership-agnostic.
#ifndef NGX_SRC_OFFLOAD_OFFLOAD_FABRIC_H_
#define NGX_SRC_OFFLOAD_OFFLOAD_FABRIC_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/offload/offload_engine.h"
#include "src/offload/routing.h"

namespace ngx {

class OffloadFabric {
 public:
  // One shard per entry of `server_cores` (all distinct, all valid core
  // ids). Shard s's channels start at
  // `channel_base + s * machine.num_cores() * kChannelStride`; the caller
  // must reserve ChannelRegionBytes(machine, num_shards) bytes there.
  OffloadFabric(Machine& machine, std::vector<int> server_cores, Addr channel_base,
                std::uint32_t ring_capacity);

  static std::uint64_t ChannelRegionBytes(const Machine& machine, int num_shards);

  int num_shards() const { return static_cast<int>(engines_.size()); }
  const std::vector<int>& server_cores() const { return server_cores_; }
  OffloadEngine& shard(int s) { return *engines_[static_cast<std::size_t>(s)]; }
  const OffloadEngine& shard(int s) const { return *engines_[static_cast<std::size_t>(s)]; }
  Router& router() { return router_; }

  // Binds shard s's server-side request handler.
  void set_server(int s, OffloadServer* server) { shard(s).set_server(server); }

  // Installs (or clears, with null) shard s's idle-window background hook;
  // runs on that shard's server core after every ring drain. The watermark
  // rebalancer lives here (see OffloadEngine::set_post_drain_hook).
  void set_post_drain_hook(int s, std::function<void(Env&)> hook) {
    shard(s).set_post_drain_hook(std::move(hook));
  }

  // Applies the background ring-drain threshold to every shard (see
  // OffloadEngine::set_eager_drain_at; 0 = historical stall-only behaviour).
  void set_eager_drain_at(std::uint32_t n) {
    for (auto& e : engines_) {
      e->set_eager_drain_at(n);
    }
  }

  // The shard that serves a malloc from `client` (Router::Route over the
  // current shard states). Host-side only; charges no simulated time.
  int RouteMalloc(int client) const { return router_.Route(client, states_); }
  // Re-packs the router's homes from a closed epoch against the current
  // shard states (Router::Observe).
  void ObserveEpoch(const EpochMatrix& epoch) { router_.Observe(epoch, states_); }

  // ---- Shard lifecycle (elastic fleet) ----------------------------------
  // State is host-side bookkeeping owned by the epoch controller in the
  // control plane; the fabric only gates malloc routing on it (the router
  // sends no malloc to a non-active shard). Frees and explicit-shard
  // requests are unaffected: a parked shard still drains its rings and
  // serves owner-bound ops.
  ShardState shard_state(int s) const {
    return states_[static_cast<std::size_t>(s)];
  }
  void set_shard_state(int s, ShardState st) {
    states_[static_cast<std::size_t>(s)] = st;
  }
  int num_active_shards() const;

  // ---- Epoch traffic matrix ---------------------------------------------
  // When tracking is enabled (the adaptive controller turns it on), every
  // request entry point counts one op against (client core, shard) in a
  // host-side matrix. TakeEpoch snapshots the matrix into `out`, resets the
  // accumulators, and returns the total op count of the closing epoch.
  // Independent of the flight recorder's telemetry-gated traffic matrix,
  // which stays observational.
  void set_epoch_tracking(bool on);
  bool epoch_tracking() const { return epoch_tracking_; }
  std::uint64_t TakeEpoch(EpochMatrix* out);

  // Ops shard s has absorbed in the current (still-open) epoch.
  std::uint64_t EpochShardOps(int s) const;

  // Round trip / fire-and-forget on an explicit shard. Callers route mallocs
  // through RouteMalloc and frees through their address->shard owner map.
  std::uint64_t SyncRequest(Env& client_env, int s, OffloadOp op, std::uint64_t arg);
  void AsyncRequest(Env& client_env, int s, OffloadOp op, std::uint64_t arg);

  // Batched frees to shard s (OffloadEngine::StageFree / PublishStaged):
  // entries are stored straight into the ring, every `batch`-th publishes
  // the batch with one doorbell, and the shard drains it in its idle
  // windows ahead of later sync requests.
  void StageFree(Env& client_env, int s, std::uint64_t addr, std::uint32_t batch);
  void PublishStaged(Env& client_env, int s);

  // One-way tagged message to shard s, handled in the shard's idle windows
  // (OffloadEngine::Post): the control plane's span returns.
  void Post(Env& client_env, int s, OffloadOp op, std::uint64_t arg);

  // Non-blocking tagged op to shard s, served eagerly in the shard's drain
  // window on its own clock (the stash pipeline's kRefillStash; see
  // OffloadEngine::AsyncRequestKicked). Returns the shard clock after the
  // drain.
  std::uint64_t AsyncRequestKicked(Env& client_env, int s, OffloadOp op,
                                   std::uint64_t arg);

  // Drains every client ring of every shard on the shards' server cores and
  // leaves no published entry behind, though a shard's post-drain tick may
  // post a span return to a shard drained before it.
  void DrainAll();

  // Async entries published to shard s and not yet drained (the epoch
  // controller's wake signal). Both counts are the engine's own, so entries
  // pushed straight on the engine are seen too; staged frees count once
  // their batch publishes.
  std::uint64_t QueueDepth(int s) const {
    const OffloadEngineStats& st = shard(s).stats();
    return st.async_enqueued - st.async_ops;
  }

  const OffloadEngineStats& shard_stats(int s) const { return shard(s).stats(); }
  // Sum over shards (what the single-engine stats() used to report).
  OffloadEngineStats TotalStats() const;

 private:
  // Samples QueueDepth(s) into telemetry after an enqueue.
  void RecordQueueDepth(Env& client_env, int s);

  // Counts one epoch op for (client, s) when tracking is enabled.
  void NoteEpochOp(int client, int s) {
    if (!epoch_tracking_) return;
    ++epoch_ops_[static_cast<std::size_t>(client) * engines_.size() +
                 static_cast<std::size_t>(s)];
  }

  Machine* machine_;
  std::vector<int> server_cores_;
  std::vector<std::unique_ptr<OffloadEngine>> engines_;
  Router router_;
  std::vector<ShardState> states_;             // per-shard lifecycle
  bool epoch_tracking_ = false;
  std::uint64_t epoch_seq_ = 0;
  std::vector<std::uint64_t> epoch_ops_;  // client-major (num_cores x shards)

  // Telemetry handles (lazily bound on the first enqueue after enable).
  std::vector<Histogram*> h_queue_depth_;   // per shard
  std::vector<std::string> depth_tracks_;   // per-shard trace counter names
};

}  // namespace ngx

#endif  // NGX_SRC_OFFLOAD_OFFLOAD_FABRIC_H_
