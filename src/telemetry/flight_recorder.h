// FlightRecorder: the fabric-wide observability layer (DESIGN.md §13).
//
// Three sinks behind one switch (TelemetryConfig::recorder):
//
//  * TrafficMatrix -- per-(client core, shard) op/byte/size-class counters,
//    the observed matrix the adaptive-routing roadmap item consumes.
//  * Heap introspection snapshots -- periodic and on-demand walks over the
//    span directory and every shard's server heap, built entirely from
//    untimed host-side reads (SimMemory::Read) and host mirrors.
//  * Per-op cycle attribution -- client-op wall cycles split into
//    client-path / sync-stall / ring-wait, and server busy cycles split into
//    carve / drain, so the Table-3 residue decomposes into named costs.
//
// The contract is PR 2's, verbatim: the recorder READS clocks and counters
// and never advances them. A run with the recorder on is bit-identical --
// same PMU counters, same cycle counts, same heap bytes -- to a run with it
// off (enforced by tests/test_determinism_sweep.cc).
#ifndef NGX_SRC_TELEMETRY_FLIGHT_RECORDER_H_
#define NGX_SRC_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/telemetry/json.h"

namespace ngx {

// One (client core, shard) cell of the traffic matrix.
struct TrafficCell {
  std::uint64_t sync_ops = 0;       // round trips (malloc/free/flush/usable)
  std::uint64_t async_ops = 0;      // ring entries enqueued (frees, refills)
  std::uint64_t mallocs = 0;        // small-class mallocs routed here
  std::uint64_t large_mallocs = 0;  // above-class mallocs routed here
  std::uint64_t frees = 0;          // frees resolved to this owner shard
  std::uint64_t bytes = 0;          // requested malloc bytes
  std::vector<std::uint64_t> class_ops;  // per size class, grown on demand

  std::uint64_t ops() const {
    return mallocs + large_mallocs + frees;
  }
  bool empty() const {
    return sync_ops == 0 && async_ops == 0 && ops() == 0;
  }
};

// Dense client x shard accumulator. Rows grow lazily with the highest client
// core seen; every row holds one cell per shard. Purely host-side.
class TrafficMatrix {
 public:
  void SetNumShards(int n);

  void NoteSync(int client, int shard) { ++Cell(client, shard).sync_ops; }
  void NoteAsync(int client, int shard, std::uint64_t n) {
    Cell(client, shard).async_ops += n;
  }
  void NoteMalloc(int client, int shard, std::uint64_t bytes, std::int64_t size_class);
  void NoteFree(int client, int shard) { ++Cell(client, shard).frees; }

  int num_clients() const { return static_cast<int>(rows_.size()); }
  int num_shards() const { return num_shards_; }
  const TrafficCell* CellOrNull(int client, int shard) const;
  std::uint64_t TotalOps() const;
  std::uint64_t TotalSyncOps() const;
  std::uint64_t TotalAsyncOps() const;

  // {"shards": N, "op_matrix": [[ops per shard] per client], "cells": [...]}.
  JsonValue ToJson() const;

 private:
  TrafficCell& Cell(int client, int shard);

  int num_shards_ = 1;
  std::vector<std::vector<TrafficCell>> rows_;  // [client][shard]
};

// Occupancy of one shard's heap, as ServerHeap::Inspect() reports it. Built
// from untimed memory reads (SimMemory::Read) and host mirrors only: taking
// one advances no clock, touches no cache and perturbs no PMU counter -- the
// flight recorder's snapshot contract (DESIGN.md §13).
struct HeapOccupancy {
  std::uint64_t bytes_live = 0;
  std::uint64_t data_mapped_bytes = 0;
  std::uint64_t meta_mapped_bytes = 0;
  std::uint64_t free_blocks = 0;         // small blocks parked on freelists
  std::uint64_t free_block_bytes = 0;
  std::uint64_t bump_reserve_bytes = 0;  // unconsumed carve-cursor bytes
  std::uint64_t large_blocks = 0;        // live large mappings
  std::uint64_t large_bytes = 0;         // their mapped bytes
  // Segment heap only (zero elsewhere).
  std::uint64_t empty_pool_segments = 0;
  std::uint64_t live_slabs = 0;  // partial slabs reachable from class lists
  std::uint64_t full_slabs = 0;  // exhausted slabs (unlinked until a free)
  std::vector<std::uint64_t> slab_fill_decile;  // 11 buckets: 0-9%..90-99%, full
  bool truncated = false;  // a capped walk stopped early; counts are floors
};

// What one shard's heap looked like at snapshot time. Span-lifecycle counts
// come from the SpanDirectory, occupancy and slab detail from the heap's own
// Inspect() walk, fragmentation from the allocator's request-byte mirrors.
struct HeapShardSnapshot {
  int shard = 0;

  // Span lifecycle (span directory; all zero for single-shard fabrics).
  std::uint64_t owned_spans = 0;     // spans the directory charges to us
  std::uint64_t free_spans = 0;      // ungranted + recycled
  std::uint64_t recycled_spans = 0;  // fully-recycled, ready to re-grant
  std::uint64_t granted_spans = 0;   // live inside the heap
  std::uint64_t away_spans = 0;      // our home spans currently donated out

  HeapOccupancy heap;

  // Fragmentation, in percent. Internal is allocation-weighted over the whole
  // run (1 - requested/block bytes); external is 1 - live/mapped data bytes.
  double internal_frag_pct = 0.0;
  double external_frag_pct = 0.0;

  JsonValue ToJson() const;
};

struct HeapSnapshot {
  std::uint64_t cycle = 0;
  bool on_demand = false;
  std::vector<HeapShardSnapshot> shards;

  JsonValue ToJson() const;
};

// Cycle attribution totals. The measured buckets are client_op (wall cycles
// inside client malloc/free/usable/flush ops), sync_stall and ring_wait
// (client clock jumps spent waiting on a server, both subsets of client_op),
// server_carve (heap carve work, a subset of server_busy) and server_busy
// (server-core cycles inside drain and sync-service windows). The reported
// decomposition is exact by construction:
//   client_path + sync_stall + ring_wait = client_op
//   server_carve + server_drain          = server_busy
//   total                                = client_op + server_busy
struct CycleAttribution {
  std::uint64_t client_op = 0;
  std::uint64_t sync_stall = 0;
  std::uint64_t ring_wait = 0;
  std::uint64_t server_carve = 0;
  std::uint64_t server_busy = 0;

  std::uint64_t client_path() const {
    const std::uint64_t waits = sync_stall + ring_wait;
    return client_op > waits ? client_op - waits : 0;
  }
  std::uint64_t server_drain() const {
    return server_busy > server_carve ? server_busy - server_carve : 0;
  }
  std::uint64_t total() const { return client_op + server_busy; }

  JsonValue ToJson() const;
};

class FlightRecorder {
 public:
  enum Bucket {
    kClientOp = 0,
    kSyncStall,
    kRingWait,
    kServerCarve,
    kServerBusy,
    kNumBuckets,
  };

  // ---- cycle attribution ----
  void AddCycles(Bucket b, std::uint64_t cycles) {
    cycles_[static_cast<std::size_t>(b)] += cycles;
  }
  std::uint64_t cycles(Bucket b) const { return cycles_[static_cast<std::size_t>(b)]; }
  CycleAttribution attribution() const;

  // Client-op scope tracking: only the outermost Begin/End pair on a core
  // records wall cycles, and wait-bucket sites use InClientOp to exclude
  // server-core background traffic (the rebalancer's own sync requests).
  void BeginClientOp(int core, std::uint64_t now);
  void EndClientOp(int core, std::uint64_t now);
  bool InClientOp(int core) const {
    return static_cast<std::size_t>(core) < scopes_.size() &&
           scopes_[static_cast<std::size_t>(core)].depth > 0;
  }

  // ---- traffic matrix ----
  TrafficMatrix& matrix() { return matrix_; }
  const TrafficMatrix& matrix() const { return matrix_; }

  // ---- heap snapshots ----
  // The allocator owning the fabric's heaps registers the walker; the
  // recorder stamps cycle/on_demand on whatever it returns.
  void SetSnapshotSource(std::function<HeapSnapshot()> source) {
    snapshot_source_ = std::move(source);
  }
  void ClearSnapshotSource() { snapshot_source_ = nullptr; }
  bool has_snapshot_source() const { return snapshot_source_ != nullptr; }
  // Returns the stored snapshot, or nullptr when no source is registered.
  const HeapSnapshot* TakeSnapshot(std::uint64_t cycle, bool on_demand);
  const std::vector<HeapSnapshot>& snapshots() const { return snapshots_; }

  // {"attribution": {...}, "traffic_matrix": {...}, "snapshots": [...]}.
  JsonValue ToJson() const;

 private:
  struct CoreScope {
    std::uint32_t depth = 0;
    std::uint64_t t0 = 0;
  };

  std::uint64_t cycles_[kNumBuckets] = {};
  std::vector<CoreScope> scopes_;  // grown lazily per client core
  TrafficMatrix matrix_;
  std::function<HeapSnapshot()> snapshot_source_;
  std::vector<HeapSnapshot> snapshots_;
};

}  // namespace ngx

#endif  // NGX_SRC_TELEMETRY_FLIGHT_RECORDER_H_
