#include "src/workload/runner.h"

#include <cassert>

namespace ngx {

std::vector<int> FirstCores(int n) {
  std::vector<int> cores(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    cores[static_cast<std::size_t>(i)] = i;
  }
  return cores;
}

namespace {

// Runs `thread`, then flushes its core's allocator state in a Step of its
// own: the flush is sent at the thread's own end and takes its place in the
// scheduler's send order, not behind work other threads do later.
class FlushAtEnd final : public SimThread {
 public:
  FlushAtEnd(SimThread& thread, Allocator& alloc) : thread_(&thread), alloc_(&alloc) {}
  int core_id() const override { return thread_->core_id(); }
  bool Step(Env& env) override {
    if (!ended_) {
      ended_ = !thread_->Step(env);
      return true;
    }
    alloc_->Flush(env);
    return false;
  }

 private:
  SimThread* thread_;
  Allocator* alloc_;
  bool ended_ = false;
};

}  // namespace

RunResult RunWorkload(Machine& machine, Allocator& alloc, Workload& workload,
                      const RunOptions& options) {
  assert(!options.cores.empty());
  auto threads = workload.MakeThreads(machine, alloc, options.cores, options.seed);
  std::vector<FlushAtEnd> flushing;
  flushing.reserve(threads.size());
  std::vector<SimThread*> raw;
  raw.reserve(threads.size());
  for (auto& t : threads) {
    if (options.flush_at_end) {
      raw.push_back(&flushing.emplace_back(*t, alloc));
    } else {
      raw.push_back(t.get());
    }
  }
  Scheduler::Run(machine, raw);

  RunResult result;
  result.server_cores = options.server_cores;
  result.per_core.reserve(static_cast<std::size_t>(machine.num_cores()));
  for (int c = 0; c < machine.num_cores(); ++c) {
    result.per_core.push_back(machine.core(c).pmu());
  }
  for (const int c : options.cores) {
    result.app += machine.core(c).pmu();
    result.wall_cycles = std::max(result.wall_cycles, machine.core(c).now());
  }
  result.per_server.reserve(options.server_cores.size());
  for (const int c : options.server_cores) {
    result.per_server.push_back(machine.core(c).pmu());
    result.server += result.per_server.back();
  }
  result.alloc_stats = alloc.stats();
  if (machine.telemetry().enabled()) {
    const MetricsRegistry& m = machine.telemetry().metrics();
    for (std::size_t s = 0; s < options.server_cores.size(); ++s) {
      const Histogram h =
          m.HistogramTotal("offload.sync_latency", {{"shard", std::to_string(s)}});
      result.shard_sync_latency.push_back(h.Summary());
    }
    result.free_flush_occupancy = m.HistogramTotal("offload.free_batch", {}).Summary();
  }
  if (machine.telemetry().recording()) {
    FlightRecorder& rec = machine.telemetry().recorder();
    // One on-demand end-of-run snapshot so every recorder run reports final
    // occupancy even when the periodic cadence is off.
    if (rec.has_snapshot_source()) {
      const HeapSnapshot* end_snap = rec.TakeSnapshot(result.wall_cycles, true);
      if (end_snap != nullptr) {
        result.final_snapshot = *end_snap;
      }
    }
    result.recorder_enabled = true;
    result.traffic_matrix = rec.matrix();
    result.attribution = rec.attribution();
    result.snapshots = rec.snapshots();
  }
  return result;
}

}  // namespace ngx
