// Binds a machine, an allocator and a workload; runs to completion and
// collects the PMU counters the paper's tables report.
//
// RunResult carries what RunWorkload measures on the machine, plus the
// metrics-registry and flight-recorder digests. Allocator books (span moves,
// stash refills, fleet epochs, map waste, ...) stay with the allocator that
// keeps them: read them from it while the system is alive.
#ifndef NGX_SRC_WORKLOAD_RUNNER_H_
#define NGX_SRC_WORKLOAD_RUNNER_H_

#include <string>
#include <vector>

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/workload/workload.h"

namespace ngx {

struct RunResult {
  // Counters summed over the *application* cores (what perf would report
  // for the process; dedicated allocator cores are reported separately).
  PmuCounters app;
  // Wall-clock = the largest application-core cycle count.
  std::uint64_t wall_cycles = 0;
  std::vector<PmuCounters> per_core;
  // One entry per RunOptions::server_cores shard, in the same order.
  std::vector<PmuCounters> per_server;
  std::vector<int> server_cores;
  // Aggregate over per_server (the single-server `server` field, kept
  // backward-compatible: with one shard it is that shard's counters).
  PmuCounters server;
  AllocatorStats alloc_stats;
  // Client-observed sync round-trip latency digest per shard (same order as
  // RunOptions::server_cores), aggregated over ops. Populated only when the
  // machine's telemetry was enabled; units are simulated cycles.
  std::vector<HistogramSummary> shard_sync_latency;
  // Entries per published remote-free batch (telemetry-enabled runs only,
  // like shard_sync_latency).
  HistogramSummary free_flush_occupancy;
  // Flight-recorder digests (recorder-enabled runs only; DESIGN.md §13):
  // the client x shard traffic matrix, the per-op cycle-attribution totals,
  // every periodic heap snapshot taken during the run, and one on-demand
  // end-of-run snapshot (also appended to `snapshots`). All purely
  // observational; a recorder-on run's sim state is bit-identical to the
  // same run with the recorder off.
  bool recorder_enabled = false;
  TrafficMatrix traffic_matrix;
  CycleAttribution attribution;
  std::vector<HeapSnapshot> snapshots;
  HeapSnapshot final_snapshot;

  // Fraction of application-core cycles spent inside allocator code.
  double MallocTimeShare() const { return app.AllocCycleShare(); }
};

struct RunOptions {
  std::vector<int> cores;          // application cores (threads pinned 1:1)
  std::uint64_t seed = 1;
  std::vector<int> server_cores;   // allocator shard cores; excluded from `app`
  // Each thread flushes its core's allocator state at its own end, in a
  // scheduler step of its own.
  bool flush_at_end = true;
};

RunResult RunWorkload(Machine& machine, Allocator& alloc, Workload& workload,
                      const RunOptions& options);

// Convenience: cores 0..n-1.
std::vector<int> FirstCores(int n);

}  // namespace ngx

#endif  // NGX_SRC_WORKLOAD_RUNNER_H_
