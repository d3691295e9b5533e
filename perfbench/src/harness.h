// One allocator side (NextGen or its Mimalloc anchor) of one benchmark run:
// build the machine, the allocator system and the workload threads, run them
// to completion, flush, and read every counter the benchmark reports through
// the simulator's public accessors.
#ifndef NGX_PERFBENCH_SRC_HARNESS_H_
#define NGX_PERFBENCH_SRC_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/alloc/allocator.h"
#include "src/sim/pmu.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"

namespace perfbench {

// Forwarding decorator handed to Workload::MakeThreads: every Malloc and
// Free the workload issues is timed in simulated cycles on the calling
// core's clock (client-observed latency), and every kSegmentCalls-th call
// reads the host CPU clock, which cuts a run into segments (see
// SideResult::run_s). With `time_calls` on it also times each call in host
// seconds; with `audit` on it checks the allocator's answers: 16-byte
// alignment, no block overlapping a live one, every free naming a live
// block. Reading clocks only, it never changes the simulation.
class CallRecorder : public ngx::Allocator {
 public:
  // Under a millisecond of host time on every workload (~3 us a call).
  static constexpr std::uint64_t kSegmentCalls = 256;

  CallRecorder(ngx::Allocator& inner, bool time_calls, bool audit)
      : inner_(&inner), time_calls_(time_calls), audit_(audit) {}

  std::string_view name() const override { return inner_->name(); }
  ngx::Addr Malloc(ngx::Env& env, std::uint64_t size) override;
  void Free(ngx::Env& env, ngx::Addr addr) override;
  std::uint64_t UsableSize(ngx::Env& env, ngx::Addr addr) override {
    return inner_->UsableSize(env, addr);
  }
  void Flush(ngx::Env& env) override;
  ngx::AllocatorStats stats() const override { return inner_->stats(); }

  std::vector<std::uint64_t>& malloc_cycles() { return malloc_cycles_; }
  std::vector<std::uint64_t>& free_cycles() { return free_cycles_; }
  std::uint64_t failed_mallocs() const { return failed_mallocs_; }
  std::uint64_t bytes_requested() const { return bytes_requested_; }
  double call_host_s() const { return call_host_s_; }
  const std::vector<double>& segment_ends() const { return segment_ends_; }
  std::size_t live_blocks() const { return live_.size(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void Fail(std::string what);
  void CountCall();

  ngx::Allocator* inner_;
  bool time_calls_;
  bool audit_;
  std::vector<std::uint64_t> malloc_cycles_;
  std::vector<std::uint64_t> free_cycles_;
  std::uint64_t failed_mallocs_ = 0;
  std::uint64_t bytes_requested_ = 0;
  double call_host_s_ = 0.0;                 // time_calls: wall seconds inside calls
  std::uint64_t calls_ = 0;
  std::vector<double> segment_ends_;         // host CPU seconds at each segment's end
  std::map<ngx::Addr, std::uint64_t> live_;  // audit: block -> requested size
  std::vector<std::string> errors_;
};

// NextGen's host-side books by name (stash_hits, donated_spans,
// ring_doorbells, ...), read straight from NgxSystem::allocator, its span
// directory and its fabric. A wrapped allocator defeats RunWorkload's
// dynamic_cast, so these are never read through the workload's Allocator
// reference.
using Books = std::map<std::string, std::uint64_t>;

// What the flight recorder and the metrics registry saw (telemetry passes
// only).
struct TraceDigest {
  ngx::CycleAttribution attribution;
  std::uint64_t slab_reuses = 0;
  std::uint64_t slab_fresh = 0;
  ngx::Histogram sync_latency;
  std::uint64_t trace_dropped_events = 0;
};

// Host seconds to build each part of a simulated run.
struct SetupTimes {
  double machine_s = 0.0;  // the simulated machine (and its telemetry)
  double system_s = 0.0;   // the allocator system: fabric, shards, heaps
  double threads_s = 0.0;  // the workload and its threads

  double total() const { return machine_s + system_s + threads_s; }
};

// What a pass turns on besides the simulation. Every probe only observes, so
// all of them replay the same simulated history (the same hash); they differ
// in which host times mean something, so each host figure comes from the
// pass whose probes do not inflate it.
enum class Probe {
  kNone,       // nothing: the untraced passes behind the end-to-end metrics
  kTelemetry,  // metrics, the flight recorder and event tracing
  kCallClock,  // a host clock around every decorated call
  kAudit,      // telemetry plus the block audit; its host times go unreported
};

// One side's outcome, summed over the simulated runs of one benchmark run
// (WorkloadSpec::seeds_per_run of them, each on its own derived seed).
struct SideResult {
  // Host seconds.
  std::vector<SetupTimes> setups;  // one per simulated run
  // Scheduler run, flush and drain of every simulated run, cut into
  // segments of CallRecorder::kSegmentCalls workload calls each (the last
  // one takes the rest and the flush). A same-seed pass replays the same
  // history, so segment i is the same work in every pass.
  std::vector<double> run_s;
  double run_wall_s = 0.0;         // the same, summed, on the call clock
  double call_host_s = 0.0;        // inside decorated calls (kCallClock only)

  // Simulated outcome.
  std::uint64_t wall_cycles = 0;  // per run: the latest application-core clock
  ngx::PmuCounters app;           // application cores
  ngx::PmuCounters server;        // NextGen shard cores
  ngx::PmuCounters all;           // every core
  ngx::AllocatorStats stats;
  std::vector<std::uint64_t> malloc_cycles;  // every call, sorted
  std::vector<std::uint64_t> free_cycles;    // every call, sorted
  std::uint64_t failed_mallocs = 0;
  std::uint64_t bytes_requested = 0;  // summed malloc arguments, as offered
  Books books;                        // NextGen only
  TraceDigest trace;                  // kTelemetry and kAudit only
  // SimStateHash of everything simulated above, chained over the runs.
  std::uint64_t hash = 0;

  std::vector<std::string> errors;  // correctness-gate violations
};

enum class Side { kNextGen, kAnchor };

// Runs one side of `spec` for one benchmark run under `probe`: one simulated
// run per derived seed, summed.
SideResult RunSide(const WorkloadSpec& spec, Side side, std::uint64_t seed, Probe probe,
                   bool reduced);

// Builds one side's first simulated run without running it: an extra
// set-up sample.
SetupTimes TimeSetup(const WorkloadSpec& spec, Side side, std::uint64_t seed, bool reduced);

// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
std::uint64_t Percentile(const std::vector<std::uint64_t>& sorted, double pct);

}  // namespace perfbench

#endif  // NGX_PERFBENCH_SRC_HARNESS_H_
