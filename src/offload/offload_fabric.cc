#include "src/offload/offload_fabric.h"

#include "src/sim/check.h"

namespace ngx {

OffloadFabric::OffloadFabric(Machine& machine, std::vector<int> server_cores,
                             Addr channel_base, std::uint32_t ring_capacity)
    : machine_(&machine), server_cores_(std::move(server_cores)) {
  NGX_CHECK(!server_cores_.empty(), "the fabric needs at least one shard");
  for (std::size_t i = 0; i < server_cores_.size(); ++i) {
    for (std::size_t j = i + 1; j < server_cores_.size(); ++j) {
      NGX_CHECK(server_cores_[i] != server_cores_[j],
                "shard server cores must be distinct");
    }
  }
  const std::uint64_t shard_stride =
      kChannelStride * static_cast<std::uint64_t>(machine.num_cores());
  engines_.reserve(server_cores_.size());
  for (std::size_t s = 0; s < server_cores_.size(); ++s) {
    engines_.push_back(std::make_unique<OffloadEngine>(
        machine, server_cores_[s], channel_base + shard_stride * s, ring_capacity));
    engines_.back()->set_shard_id(static_cast<int>(s));
  }
  states_.assign(engines_.size(), ShardState::kActive);
}

std::uint64_t OffloadFabric::ChannelRegionBytes(const Machine& machine, int num_shards) {
  return kChannelStride * static_cast<std::uint64_t>(machine.num_cores()) *
         static_cast<std::uint64_t>(num_shards);
}

int OffloadFabric::num_active_shards() const {
  int n = 0;
  for (ShardState st : states_) n += st == ShardState::kActive ? 1 : 0;
  return n;
}

void OffloadFabric::set_epoch_tracking(bool on) {
  epoch_tracking_ = on;
  epoch_ops_.assign(
      on ? static_cast<std::size_t>(machine_->num_cores()) * engines_.size() : 0,
      0);
}

std::uint64_t OffloadFabric::EpochShardOps(int s) const {
  if (!epoch_tracking_) return 0;
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < epoch_ops_.size() / engines_.size(); ++c) {
    total += epoch_ops_[c * engines_.size() + static_cast<std::size_t>(s)];
  }
  return total;
}

std::uint64_t OffloadFabric::TakeEpoch(EpochMatrix* out) {
  NGX_CHECK(epoch_tracking_, "TakeEpoch requires epoch tracking");
  ++epoch_seq_;
  out->num_clients = machine_->num_cores();
  out->num_shards = num_shards();
  out->epoch = epoch_seq_;
  out->ops = epoch_ops_;
  std::uint64_t total = 0;
  for (std::uint64_t v : epoch_ops_) total += v;
  epoch_ops_.assign(epoch_ops_.size(), 0);
  return total;
}

std::uint64_t OffloadFabric::SyncRequest(Env& client_env, int s, OffloadOp op,
                                         std::uint64_t arg) {
  NoteEpochOp(client_env.core_id(), s);
  return shard(s).SyncRequest(client_env, op, arg);
}

void OffloadFabric::AsyncRequest(Env& client_env, int s, OffloadOp op, std::uint64_t arg) {
  NoteEpochOp(client_env.core_id(), s);
  shard(s).AsyncRequest(client_env, op, arg);
  RecordQueueDepth(client_env, s);
}

void OffloadFabric::StageFree(Env& client_env, int s, std::uint64_t addr,
                              std::uint32_t batch) {
  // The epoch matrix counts the free when it is issued; the queue depth
  // sees it once its batch publishes.
  NoteEpochOp(client_env.core_id(), s);
  if (shard(s).StageFree(client_env, addr, batch) > 0) {
    RecordQueueDepth(client_env, s);
  }
}

void OffloadFabric::PublishStaged(Env& client_env, int s) {
  if (shard(s).PublishStaged(client_env) > 0) {
    RecordQueueDepth(client_env, s);
  }
}

void OffloadFabric::Post(Env& client_env, int s, OffloadOp op, std::uint64_t arg) {
  NoteEpochOp(client_env.core_id(), s);
  shard(s).Post(client_env, op, arg);
  RecordQueueDepth(client_env, s);
}

std::uint64_t OffloadFabric::AsyncRequestKicked(Env& client_env, int s, OffloadOp op,
                                                std::uint64_t arg) {
  NoteEpochOp(client_env.core_id(), s);
  const std::uint64_t t = shard(s).AsyncRequestKicked(client_env, op, arg);
  RecordQueueDepth(client_env, s);
  return t;
}

void OffloadFabric::RecordQueueDepth(Env& client_env, int s) {
  // Queue depth behind shard s's server, sampled at every enqueue. Purely
  // observational: reads the enqueue/drain counters and the client clock.
  Telemetry& tel = machine_->telemetry();
  if (tel.enabled()) {
    if (h_queue_depth_.empty()) {
      for (int i = 0; i < num_shards(); ++i) {
        h_queue_depth_.push_back(
            &tel.metrics().GetHistogram("offload.queue_depth", {{"shard", std::to_string(i)}}));
        depth_tracks_.push_back("shard" + std::to_string(i) + ".queue_depth");
      }
    }
    const std::uint64_t depth = QueueDepth(s);
    h_queue_depth_[static_cast<std::size_t>(s)]->Record(depth);
    if (tel.tracing()) {
      tel.tracer().Counter(depth_tracks_[static_cast<std::size_t>(s)], client_env.now(), depth);
    }
  }
}

void OffloadFabric::DrainAll() {
  for (auto& e : engines_) {
    e->DrainAll();
  }
  // A drain's post-drain tick can post to a shard this pass already
  // drained; drain those again until every ring is empty. Each post moves
  // spans home, so the ticks run out of posts.
  for (int s = 0; s < num_shards();) {
    if (QueueDepth(s) > 0) {
      shard(s).DrainAll();
      s = 0;
    } else {
      ++s;
    }
  }
}

OffloadEngineStats OffloadFabric::TotalStats() const {
  OffloadEngineStats total;
  for (const auto& e : engines_) {
    total.sync_requests += e->stats().sync_requests;
    total.async_ops += e->stats().async_ops;
    total.ring_full_stalls += e->stats().ring_full_stalls;
    total.server_busy_waits += e->stats().server_busy_waits;
    total.ring_doorbells += e->stats().ring_doorbells;
    total.async_enqueued += e->stats().async_enqueued;
    total.staged_frees += e->stats().staged_frees;
    total.free_batches += e->stats().free_batches;
    total.refill_ops += e->stats().refill_ops;
    total.carve_cycles += e->stats().carve_cycles;
  }
  return total;
}

}  // namespace ngx
