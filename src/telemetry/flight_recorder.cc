#include "src/telemetry/flight_recorder.h"

#include <cassert>

namespace ngx {

void TrafficMatrix::SetNumShards(int n) {
  assert(n >= 1);
  num_shards_ = n;
  for (auto& row : rows_) {
    if (row.size() < static_cast<std::size_t>(n)) {
      row.resize(static_cast<std::size_t>(n));
    }
  }
}

TrafficCell& TrafficMatrix::Cell(int client, int shard) {
  assert(client >= 0 && shard >= 0 && shard < num_shards_);
  if (rows_.size() <= static_cast<std::size_t>(client)) {
    rows_.resize(static_cast<std::size_t>(client) + 1);
  }
  auto& row = rows_[static_cast<std::size_t>(client)];
  if (row.size() < static_cast<std::size_t>(num_shards_)) {
    row.resize(static_cast<std::size_t>(num_shards_));
  }
  return row[static_cast<std::size_t>(shard)];
}

const TrafficCell* TrafficMatrix::CellOrNull(int client, int shard) const {
  if (client < 0 || static_cast<std::size_t>(client) >= rows_.size()) {
    return nullptr;
  }
  const auto& row = rows_[static_cast<std::size_t>(client)];
  if (shard < 0 || static_cast<std::size_t>(shard) >= row.size()) {
    return nullptr;
  }
  return &row[static_cast<std::size_t>(shard)];
}

void TrafficMatrix::NoteMalloc(int client, int shard, std::uint64_t bytes,
                               std::int64_t size_class) {
  TrafficCell& c = Cell(client, shard);
  c.bytes += bytes;
  if (size_class < 0) {
    ++c.large_mallocs;
    return;
  }
  ++c.mallocs;
  const auto cls = static_cast<std::size_t>(size_class);
  if (c.class_ops.size() <= cls) {
    c.class_ops.resize(cls + 1, 0);
  }
  ++c.class_ops[cls];
}

std::uint64_t TrafficMatrix::TotalOps() const {
  std::uint64_t total = 0;
  for (const auto& row : rows_) {
    for (const TrafficCell& c : row) {
      total += c.ops();
    }
  }
  return total;
}

std::uint64_t TrafficMatrix::TotalSyncOps() const {
  std::uint64_t total = 0;
  for (const auto& row : rows_) {
    for (const TrafficCell& c : row) {
      total += c.sync_ops;
    }
  }
  return total;
}

std::uint64_t TrafficMatrix::TotalAsyncOps() const {
  std::uint64_t total = 0;
  for (const auto& row : rows_) {
    for (const TrafficCell& c : row) {
      total += c.async_ops;
    }
  }
  return total;
}

JsonValue TrafficMatrix::ToJson() const {
  JsonValue root = JsonValue::Object();
  root.Set("clients", static_cast<std::uint64_t>(rows_.size()));
  root.Set("shards", num_shards_);
  JsonValue matrix = JsonValue::Array();
  for (const auto& row : rows_) {
    JsonValue r = JsonValue::Array();
    for (int s = 0; s < num_shards_; ++s) {
      const std::uint64_t ops =
          static_cast<std::size_t>(s) < row.size() ? row[static_cast<std::size_t>(s)].ops() : 0;
      r.Push(ops);
    }
    matrix.Push(std::move(r));
  }
  root.Set("op_matrix", std::move(matrix));
  JsonValue cells = JsonValue::Array();
  for (std::size_t client = 0; client < rows_.size(); ++client) {
    for (std::size_t s = 0; s < rows_[client].size(); ++s) {
      const TrafficCell& c = rows_[client][s];
      if (c.empty()) {
        continue;
      }
      JsonValue cell = JsonValue::Object();
      cell.Set("client", static_cast<std::uint64_t>(client));
      cell.Set("shard", static_cast<std::uint64_t>(s));
      cell.Set("sync_ops", c.sync_ops);
      cell.Set("async_ops", c.async_ops);
      cell.Set("mallocs", c.mallocs);
      cell.Set("large_mallocs", c.large_mallocs);
      cell.Set("frees", c.frees);
      cell.Set("bytes", c.bytes);
      JsonValue classes = JsonValue::Object();
      for (std::size_t cls = 0; cls < c.class_ops.size(); ++cls) {
        if (c.class_ops[cls] != 0) {
          classes.Set(std::to_string(cls), c.class_ops[cls]);
        }
      }
      cell.Set("class_ops", std::move(classes));
      cells.Push(std::move(cell));
    }
  }
  root.Set("cells", std::move(cells));
  return root;
}

JsonValue HeapShardSnapshot::ToJson() const {
  JsonValue o = JsonValue::Object();
  o.Set("shard", shard);
  JsonValue spans = JsonValue::Object();
  spans.Set("owned", owned_spans);
  spans.Set("free", free_spans);
  spans.Set("recycled", recycled_spans);
  spans.Set("granted", granted_spans);
  spans.Set("away", away_spans);
  o.Set("spans", std::move(spans));
  o.Set("bytes_live", heap.bytes_live);
  o.Set("data_mapped_bytes", heap.data_mapped_bytes);
  o.Set("meta_mapped_bytes", heap.meta_mapped_bytes);
  o.Set("free_blocks", heap.free_blocks);
  o.Set("free_block_bytes", heap.free_block_bytes);
  o.Set("bump_reserve_bytes", heap.bump_reserve_bytes);
  o.Set("large_blocks", heap.large_blocks);
  o.Set("large_bytes", heap.large_bytes);
  o.Set("empty_pool_segments", heap.empty_pool_segments);
  o.Set("live_slabs", heap.live_slabs);
  o.Set("full_slabs", heap.full_slabs);
  if (!heap.slab_fill_decile.empty()) {
    JsonValue h = JsonValue::Array();
    for (const std::uint64_t v : heap.slab_fill_decile) {
      h.Push(v);
    }
    o.Set("slab_fill_decile", std::move(h));
  }
  o.Set("truncated", heap.truncated);
  o.Set("internal_frag_pct", internal_frag_pct);
  o.Set("external_frag_pct", external_frag_pct);
  return o;
}

JsonValue HeapSnapshot::ToJson() const {
  JsonValue o = JsonValue::Object();
  o.Set("cycle", cycle);
  o.Set("on_demand", on_demand);
  JsonValue arr = JsonValue::Array();
  for (const HeapShardSnapshot& s : shards) {
    arr.Push(s.ToJson());
  }
  o.Set("shards", std::move(arr));
  return o;
}

JsonValue CycleAttribution::ToJson() const {
  JsonValue o = JsonValue::Object();
  o.Set("client_path_cycles", client_path());
  o.Set("sync_stall_cycles", sync_stall);
  o.Set("ring_wait_cycles", ring_wait);
  o.Set("server_carve_cycles", server_carve);
  o.Set("server_drain_cycles", server_drain());
  o.Set("client_op_cycles", client_op);
  o.Set("server_busy_cycles", server_busy);
  o.Set("total_cycles", total());
  return o;
}

CycleAttribution FlightRecorder::attribution() const {
  CycleAttribution a;
  a.client_op = cycles(kClientOp);
  a.sync_stall = cycles(kSyncStall);
  a.ring_wait = cycles(kRingWait);
  a.server_carve = cycles(kServerCarve);
  a.server_busy = cycles(kServerBusy);
  return a;
}

void FlightRecorder::BeginClientOp(int core, std::uint64_t now) {
  if (scopes_.size() <= static_cast<std::size_t>(core)) {
    scopes_.resize(static_cast<std::size_t>(core) + 1);
  }
  CoreScope& s = scopes_[static_cast<std::size_t>(core)];
  if (s.depth++ == 0) {
    s.t0 = now;
  }
}

void FlightRecorder::EndClientOp(int core, std::uint64_t now) {
  assert(static_cast<std::size_t>(core) < scopes_.size());
  CoreScope& s = scopes_[static_cast<std::size_t>(core)];
  assert(s.depth > 0);
  if (--s.depth == 0 && now > s.t0) {
    AddCycles(kClientOp, now - s.t0);
  }
}

const HeapSnapshot* FlightRecorder::TakeSnapshot(std::uint64_t cycle, bool on_demand) {
  if (!snapshot_source_) {
    return nullptr;
  }
  HeapSnapshot snap = snapshot_source_();
  snap.cycle = cycle;
  snap.on_demand = on_demand;
  snapshots_.push_back(std::move(snap));
  return &snapshots_.back();
}

JsonValue FlightRecorder::ToJson() const {
  JsonValue o = JsonValue::Object();
  o.Set("attribution", attribution().ToJson());
  o.Set("traffic_matrix", matrix_.ToJson());
  JsonValue snaps = JsonValue::Array();
  for (const HeapSnapshot& s : snapshots_) {
    snaps.Push(s.ToJson());
  }
  o.Set("snapshots", std::move(snaps));
  return o;
}

}  // namespace ngx
