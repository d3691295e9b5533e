// perfbench_sim: runs one benchmark workload in one mode and prints one JSON
// object on stdout.
//
//   perfbench_sim --workload <name> --seed <n> --mode untraced|audit|traced
//                 [--seconds <s>] [--reduced]
//
// One pass simulates the workload's seeds_per_run instances, each on a seed
// derived from --seed, and sums them.
// untraced: repeats NextGen and Mimalloc-anchor passes until --seconds of
//   host time are spent (at least two passes), checks that every pass
//   replays the same simulated history, and reports the end-to-end metrics
//   plus every per-layer number that needs no telemetry. Set-up times are
//   medians; run times are best-of-passes (see PassSeconds).
// audit: one NextGen pass with metrics, the flight recorder, event tracing
//   and the call audit on. It reports the per-layer numbers the simulation
//   determines and the state hash the untraced passes must match, but no
//   host time: the audit's bookkeeping inflates it.
// traced: the audit pass, then the per-layer host times, each from passes
//   carrying only the probe it needs (see RunTraced).
// Any correctness-gate violation is printed to stderr and exits 3.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"

namespace perfbench {
namespace {

using Metrics = std::map<std::string, double>;
using PassSamples = std::vector<std::vector<double>>;  // [segment][pass]

constexpr int kMinPasses = 2;
// Set-up is short next to a run, so each pass adds set-up-only samples to
// steady its median while they cost under kSetupShare of the pass's run
// time, up to kMaxExtraSetups.
constexpr int kMaxExtraSetups = 64;
constexpr double kSetupShare = 0.05;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

void AddPass(PassSamples& per_segment, const std::vector<double>& run_s) {
  per_segment.resize(run_s.size());
  for (std::size_t i = 0; i < run_s.size(); ++i) {
    per_segment[i].push_back(run_s[i]);
  }
}

// Host seconds of one pass: each segment's seconds are its fastest of the
// first `passes` passes, and the pass is their sum. The work of a segment is
// fixed and a shared host's contention only ever adds time, so the minimum
// is the steadiest estimate of what the work itself costs. Segments are
// short (under a millisecond), so a burst of contention shorter than a pass
// is filtered out as long as each stretch of the run was quiet in some pass,
// not only if one whole pass was.
double PassSeconds(const PassSamples& per_segment, std::size_t passes = SIZE_MAX) {
  double total = 0.0;
  for (const std::vector<double>& samples : per_segment) {
    const std::size_t n = std::min(passes, samples.size());
    total += *std::min_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return total;
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double U(std::uint64_t v) { return static_cast<double>(v); }

std::uint64_t Accesses(const ngx::PmuCounters& p) { return p.loads + p.stores + p.atomic_rmws; }

// Per-layer numbers of a NextGen pass that the simulation itself determines
// (identical in every pass whose hash agrees).
void AddNgxLayers(const SideResult& n, Metrics& m) {
  const ngx::PmuCounters& a = n.app;
  const ngx::PmuCounters& s = n.server;
  const auto book = [&n](const char* name) { return n.books.at(name); };
  m["sim.accesses"] = U(Accesses(n.all));
  m["sim.app_l1d_misses"] = U(a.l1d_load_misses + a.l1d_store_misses);
  m["sim.app_l2_misses"] = U(a.l2_load_misses + a.l2_store_misses);
  m["sim.app_llc_misses"] = U(a.llc_load_misses + a.llc_store_misses);
  m["sim.app_dtlb_walks"] = U(a.dtlb_load_misses + a.dtlb_store_misses);
  m["sim.app_ipc"] = a.Ipc();
  for (int r = 0; r < ngx::kNumTlbRegions; ++r) {
    m[std::string("sim.dtlb_walks.") + ngx::TlbRegionName(static_cast<ngx::TlbRegion>(r))] =
        U(n.all.dtlb_region_walks[static_cast<std::size_t>(r)]);
  }
  m["sim.app_remote_hitm"] = U(a.remote_hitm);
  m["sim.invalidations"] = U(n.all.invalidations_sent);
  m["sim.server_llc_misses"] = U(s.llc_load_misses + s.llc_store_misses);
  m["sim.server_dtlb_walks"] = U(s.dtlb_load_misses + s.dtlb_store_misses);

  m["alloc.mmap_calls"] = U(n.stats.mmap_calls);
  m["alloc.munmap_calls"] = U(n.stats.munmap_calls);
  m["alloc.mapped_bytes"] = U(book("map_mapped_bytes"));
  m["alloc.map_waste_bytes"] = U(book("map_waste_bytes"));

  const std::uint64_t mallocs = n.malloc_cycles.size();
  m["core.stash_hit_ratio"] = Ratio(book("stash_hits"), mallocs);
  m["core.sync_mallocs"] = U(book("sync_mallocs"));
  m["core.stash_starvation_stalls"] = U(book("stash_starvation_stalls"));
  m["core.refill_overlap_cycles"] = U(book("refill_overlap_cycles"));
  m["core.stash_recycled_frees"] = U(book("stash_recycled_frees"));
  m["core.frees_per_flush"] = Ratio(book("buffered_frees"), book("free_flushes"));
  m["core.partition_ooms"] = U(book("partition_ooms"));
  m["core.inline_donation_fallbacks"] = U(book("inline_donation_fallbacks"));
  m["core.rebalance_moves"] = U(book("rebalance_moves"));
  m["core.donated_spans"] = U(book("donated_spans"));
  m["core.returned_spans"] = U(book("returned_spans"));
  m["core.shards_parked"] = U(book("shards_parked"));
  m["core.parked_core_cycles"] = U(book("parked_core_cycles"));

  m["offload.sync_requests"] = U(book("sync_requests"));
  m["offload.server_busy_waits"] = U(book("server_busy_waits"));
  m["offload.ring_full_stalls"] = U(book("ring_full_stalls"));
  m["offload.ring_doorbells"] = U(book("ring_doorbells"));
  m["offload.carve_cycles"] = U(book("carve_cycles"));

  m["workload.mallocs"] = U(mallocs);
  m["workload.frees"] = U(n.free_cycles.size());
  m["workload.bytes_requested"] = U(n.bytes_requested);
  m["workload.failed_ops_share"] = Ratio(n.failed_mallocs, mallocs);
  m["workload.alloc_cycle_share"] = a.AllocCycleShare();
}

void PrintJson(const std::string& workload, const std::string& mode, int passes,
               const Metrics& m, const std::map<std::string, std::uint64_t>& extra) {
  std::printf("{\"workload\": \"%s\", \"mode\": \"%s\", \"passes\": %d", workload.c_str(),
              mode.c_str(), passes);
  for (const auto& [k, v] : extra) {
    std::printf(", \"%s\": %llu", k.c_str(), static_cast<unsigned long long>(v));
  }
  std::printf(", \"metrics\": {");
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::printf("}}\n");
}

bool Report(const std::string& workload, const std::vector<std::string>& errors) {
  for (const std::string& e : errors) {
    std::cerr << "error: " << workload << ": " << e << "\n";
  }
  return errors.empty();
}

// Set-up seconds of NextGen plus anchor, one sample per built pair.
struct SetupSamples {
  std::vector<double> total, machine, system, threads;

  void Add(const SetupTimes& n, const SetupTimes& a) {
    total.push_back(n.total() + a.total());
    machine.push_back(n.machine_s + a.machine_s);
    system.push_back(n.system_s + a.system_s);
    threads.push_back(n.threads_s + a.threads_s);
  }
};

int RunUntraced(const WorkloadSpec& spec, std::uint64_t seed, double seconds, bool reduced) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto elapsed = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  PassSamples ngx_host, anchor_host;
  SetupSamples setup;
  SideResult first_ngx;
  SideResult first_mi;
  std::vector<std::string> errors;
  int passes = 0;
  double last_pass_s = 0.0;
  while (errors.empty() && (passes < kMinPasses || elapsed() + last_pass_s <= seconds)) {
    const double pass_start = elapsed();
    SideResult n = RunSide(spec, Side::kNextGen, seed, Probe::kNone, reduced);
    SideResult a = RunSide(spec, Side::kAnchor, seed, Probe::kNone, reduced);
    AddPass(ngx_host, n.run_s);
    AddPass(anchor_host, a.run_s);
    for (std::size_t i = 0; i < n.setups.size(); ++i) {
      setup.Add(n.setups[i], a.setups[i]);
    }
    const double setup_start = elapsed();
    const double setup_budget = kSetupShare * (setup_start - pass_start);
    for (int i = 0; i < kMaxExtraSetups && elapsed() - setup_start < setup_budget; ++i) {
      setup.Add(TimeSetup(spec, Side::kNextGen, seed, reduced),
                TimeSetup(spec, Side::kAnchor, seed, reduced));
    }
    if (passes == 0) {
      errors.insert(errors.end(), n.errors.begin(), n.errors.end());
      errors.insert(errors.end(), a.errors.begin(), a.errors.end());
      if (n.malloc_cycles.size() != a.malloc_cycles.size() ||
          n.free_cycles.size() != a.free_cycles.size() ||
          n.bytes_requested != a.bytes_requested) {
        errors.push_back("offered work differs between nextgen and the mimalloc anchor");
      }
      first_ngx = std::move(n);
      first_mi = std::move(a);
    } else if (n.hash != first_ngx.hash || a.hash != first_mi.hash) {
      errors.push_back("a pass with the same seed replayed a different history");
    }
    ++passes;
    last_pass_s = elapsed() - pass_start;
  }
  if (!Report(spec.name, errors)) {
    return 3;
  }

  const SideResult& n = first_ngx;
  const SideResult& a = first_mi;
  Metrics m;
  AddNgxLayers(n, m);
  m["sim_wall_cycles"] = U(n.wall_cycles);
  m["speedup_vs_mimalloc"] = U(a.wall_cycles) / U(n.wall_cycles);
  m["malloc_p50_cycles"] = U(Percentile(n.malloc_cycles, 50));
  m["malloc_p99_cycles"] = U(Percentile(n.malloc_cycles, 99));
  m["free_p99_cycles"] = U(Percentile(n.free_cycles, 99));
  m["host_s"] = PassSeconds(ngx_host) + PassSeconds(anchor_host);
  m["setup_s"] = Median(setup.total);
  // One workload per process, so the process-wide high-water mark covers
  // this workload's passes and nothing earlier.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m["host_peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  m["sim.host_ns_per_access"] = 1e9 * m["host_s"] / U(Accesses(n.all) + Accesses(a.all));
  m["alloc.anchor_wall_cycles"] = U(a.wall_cycles);
  m["alloc.anchor_host_s"] = PassSeconds(anchor_host);
  m["workload.setup_machine_s"] = Median(setup.machine);
  m["workload.setup_system_s"] = Median(setup.system);
  m["workload.setup_threads_s"] = Median(setup.threads);
  // Picked as the traced mode picks telemetry.traced_host_s, which is
  // compared with it: the fastest of the first kMinPasses passes.
  m["workload.nextgen_host_s"] = PassSeconds(ngx_host, kMinPasses);

  const std::uint64_t attempted = n.malloc_cycles.size() + n.free_cycles.size() +
                                  a.malloc_cycles.size() + a.free_cycles.size();
  PrintJson(spec.name, "untraced", passes, m,
            {{"ngx_hash", n.hash},
             {"anchor_hash", a.hash},
             {"attempted", attempted},
             {"failed", n.failed_mallocs + a.failed_mallocs}});
  return 0;
}

// The audit pass gives every simulated per-layer number and the gates. With
// `time_host`, further NextGen passes add the host times, each from passes
// whose probes do not inflate it; every pass must replay the audit pass's
// history.
int RunTraced(const WorkloadSpec& spec, std::uint64_t seed, bool reduced, bool time_host) {
  const SideResult n = RunSide(spec, Side::kNextGen, seed, Probe::kAudit, reduced);
  std::vector<std::string> errors = n.errors;
  const auto replay = [&](Probe probe) {
    SideResult r = RunSide(spec, Side::kNextGen, seed, probe, reduced);
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    if (r.hash != n.hash) {
      errors.push_back("a probed pass replayed a different history than the audit pass");
    }
    return r;
  };
  Metrics m;
  int passes = 1;
  if (time_host && errors.empty()) {
    // Telemetry alone, picked like workload.nextgen_host_s.
    PassSamples traced_host;
    for (int p = 0; p < kMinPasses; ++p) {
      AddPass(traced_host, replay(Probe::kTelemetry).run_s);
    }
    // The call clock alone, so the split is of the untraced work host_s
    // measures; both parts are read on the call clock.
    const SideResult c = replay(Probe::kCallClock);
    passes += kMinPasses + 1;
    m["telemetry.traced_host_s"] = PassSeconds(traced_host);
    m["core.call_host_s"] = c.call_host_s;
    m["workload.host_s_outside_alloc"] = c.run_wall_s - c.call_host_s;
  }
  if (!Report(spec.name, errors)) {
    return 3;
  }
  AddNgxLayers(n, m);
  const ngx::CycleAttribution& at = n.trace.attribution;
  m["core.client_path_cycles"] = U(at.client_path());
  m["core.server_carve_cycles"] = U(at.server_carve);
  m["core.slab_reuse_ratio"] =
      Ratio(n.trace.slab_reuses, n.trace.slab_reuses + n.trace.slab_fresh);
  m["offload.sync_stall_cycles"] = U(at.sync_stall);
  m["offload.ring_wait_cycles"] = U(at.ring_wait);
  m["offload.server_drain_cycles"] = U(at.server_drain());
  m["offload.sync_latency_p50"] = U(n.trace.sync_latency.Percentile(50));
  m["offload.sync_latency_p99"] = U(n.trace.sync_latency.Percentile(99));
  m["telemetry.trace_dropped_events"] = U(n.trace.trace_dropped_events);
  PrintJson(spec.name, time_host ? "traced" : "audit", passes, m, {{"ngx_hash", n.hash}});
  return 0;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload <name> --seed <n> --mode untraced|audit|traced [--seconds <s>] "
               "[--reduced]\nworkloads:";
  for (const std::string& w : WorkloadNames()) {
    std::cerr << " " << w;
  }
  std::cerr << "\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string mode;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 0.0;
  bool reduced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--mode" && has_value) {
      mode = argv[++i];
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--reduced") {
      reduced = true;
    } else {
      return Usage(argv[0]);
    }
  }
  // A fixed mmap threshold turns off glibc's adaptive one, under which the
  // peak resident set would depend on the order earlier blocks were freed.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  WorkloadSpec spec;
  if (!have_seed || !FindWorkload(workload, &spec) || seconds < 0.0) {
    return Usage(argv[0]);
  }
  if (mode == "untraced") {
    return RunUntraced(spec, seed, seconds, reduced);
  }
  if (mode == "audit" || mode == "traced") {
    return RunTraced(spec, seed, reduced, /*time_host=*/mode == "traced");
  }
  return Usage(argv[0]);
}
