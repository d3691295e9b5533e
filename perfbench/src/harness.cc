#include "perfbench/src/harness.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <memory>
#include <utility>

#include "src/alloc/layout.h"
#include "src/core/nextgen_malloc.h"
#include "src/sim/scheduler.h"

namespace perfbench {

using namespace ngx;

namespace {

// Host seconds of a run are this thread's CPU time. The simulator is
// single-threaded, and CPU time leaves out the slices a shared host hands to
// other processes, which wall time would count.
double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// The clock around single allocator calls. steady_clock is read through the
// vDSO in tens of nanoseconds; the CPU-time clock is a system call, which
// would outweigh the fast paths it times.
double WallNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool RecordsTelemetry(Probe probe) {
  return probe == Probe::kTelemetry || probe == Probe::kAudit;
}

// FNV-1a, the mixer behind SimStateHash.
class Fnv {
 public:
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void Mix(const PmuCounters& p) {
    for (const std::uint64_t v :
         {p.cycles, p.instructions, p.loads, p.stores, p.atomic_rmws, p.l1d_load_misses,
          p.l1d_store_misses, p.l2_load_misses, p.l2_store_misses, p.llc_load_misses,
          p.llc_store_misses, p.remote_hitm, p.dtlb_load_misses, p.dtlb_store_misses,
          p.dtlb_l1_misses, p.alloc_instructions, p.alloc_cycles, p.invalidations_sent,
          p.invalidations_received, p.writebacks}) {
      Mix(v);
    }
    for (int r = 0; r < kNumTlbRegions; ++r) {
      Mix(p.dtlb_region_lookups[static_cast<std::size_t>(r)]);
      Mix(p.dtlb_region_walks[static_cast<std::size_t>(r)]);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// SimStateHash: every simulated outcome the benchmark reports -- final
// clocks, each core's PMU counters, the allocator's stats and books, and
// every client-observed call latency in call order. Two runs that agree here
// went through the same simulated history as far as any reported number can
// tell.
std::uint64_t SimStateHash(const Machine& machine, const SideResult& r) {
  Fnv f;
  for (int c = 0; c < machine.num_cores(); ++c) {
    f.Mix(machine.core(c).now());
    f.Mix(machine.core(c).pmu());
  }
  const AllocatorStats& s = r.stats;
  for (const std::uint64_t v : {s.mallocs, s.frees, s.bytes_requested, s.bytes_live,
                                s.mapped_bytes, s.mmap_calls, s.munmap_calls, s.oom_failures}) {
    f.Mix(v);
  }
  for (const auto& [name, v] : r.books) {
    f.Mix(v);
  }
  f.Mix(r.failed_mallocs);
  for (const std::uint64_t v : r.malloc_cycles) {
    f.Mix(v);
  }
  for (const std::uint64_t v : r.free_cycles) {
    f.Mix(v);
  }
  return f.value();
}

Books ReadBooks(const NgxSystem& sys) {
  const NgxAllocator& a = *sys.allocator;
  const SpanDirectory* dir = a.directory();
  const OffloadEngineStats f = sys.fabric ? sys.fabric->TotalStats() : OffloadEngineStats{};
  return {
      {"stash_hits", a.stash_hits()},
      {"sync_mallocs", a.sync_mallocs()},
      {"stash_starvation_stalls", a.stash_starvation_stalls()},
      {"refill_overlap_cycles", a.refill_overlap_cycles()},
      {"stash_recycled_frees", a.stash_recycled_frees()},
      {"buffered_frees", a.buffered_frees()},
      {"free_flushes", a.free_flushes()},
      {"partition_ooms", a.partition_oom_failures()},
      {"inline_donation_fallbacks", a.inline_donation_fallbacks()},
      {"rebalance_moves", a.rebalance_moves()},
      {"donated_spans", dir != nullptr ? dir->total_donated() : 0},
      {"returned_spans", dir != nullptr ? dir->total_returned() : 0},
      {"routing_epochs", a.routing_epochs()},
      {"shards_parked", a.shards_parked()},
      {"parked_core_cycles", a.parked_core_cycles()},
      {"map_mapped_bytes", a.map_mapped_bytes()},
      {"map_waste_bytes", a.map_waste_bytes()},
      {"sync_requests", f.sync_requests},
      {"async_ops", f.async_ops},
      {"ring_full_stalls", f.ring_full_stalls},
      {"server_busy_waits", f.server_busy_waits},
      {"ring_doorbells", f.ring_doorbells},
      {"refill_ops", f.refill_ops},
      {"carve_cycles", f.carve_cycles},
  };
}

TraceDigest ReadTrace(const Machine& machine) {
  const Telemetry& t = machine.telemetry();
  const MetricsRegistry& m = t.metrics();
  TraceDigest d;
  d.attribution = t.recorder().attribution();
  d.slab_reuses = m.CounterTotal("ngx.slab_reuses");
  d.slab_fresh = m.CounterTotal("ngx.slab_fresh");
  d.sync_latency = m.HistogramTotal("offload.sync_latency");
  d.trace_dropped_events = t.tracer().dropped();
  return d;
}

// Seed of simulated run `i` of the benchmark run on `seed`: runs of
// different benchmark seeds never share a seed, and with one simulated run
// per benchmark run it is the benchmark seed itself.
std::uint64_t RunSeed(const WorkloadSpec& spec, std::uint64_t seed, int i) {
  return seed * static_cast<std::uint64_t>(spec.seeds_per_run) + static_cast<std::uint64_t>(i);
}

// Everything a run needs, built in set-up order; members are destroyed in
// reverse, so the machine outlives the allocator that hooks into it.
struct Built {
  std::unique_ptr<Machine> machine;
  NgxSystem sys;
  std::unique_ptr<MiAllocator> mi;
  std::unique_ptr<CallRecorder> rec;
  std::unique_ptr<Workload> workload;
  std::vector<std::unique_ptr<SimThread>> threads;
  SetupTimes times;
};

Built Build(const WorkloadSpec& spec, Side side, std::uint64_t seed, Probe probe,
            bool reduced) {
  Built b;
  const double t0 = CpuNow();
  b.machine = std::make_unique<Machine>(spec.machine);
  if (RecordsTelemetry(probe)) {
    TelemetryConfig tc;
    tc.enabled = true;
    tc.trace = true;
    tc.recorder = true;
    b.machine->EnableTelemetry(tc);
  }
  const double t1 = CpuNow();
  Allocator* alloc = nullptr;
  if (side == Side::kNextGen) {
    b.sys = MakeNgxSystem(*b.machine, spec.ngx, spec.server_cores);
    alloc = b.sys.allocator.get();
  } else {
    b.mi = std::make_unique<MiAllocator>(*b.machine, kMiHeapBase, spec.mi);
    alloc = b.mi.get();
  }
  const double t2 = CpuNow();
  b.rec = std::make_unique<CallRecorder>(*alloc, /*time_calls=*/probe == Probe::kCallClock,
                                         /*audit=*/probe == Probe::kAudit);
  b.workload = spec.make_workload(reduced);
  b.threads = b.workload->MakeThreads(*b.machine, *b.rec, spec.app_cores, seed);
  const double t3 = CpuNow();
  b.times.machine_s = t1 - t0;
  b.times.system_s = t2 - t1;
  b.times.threads_s = t3 - t2;
  return b;
}

// One simulated run on `seed`, with its own correctness gate.
SideResult RunOnce(const WorkloadSpec& spec, Side side, std::uint64_t seed, Probe probe,
                   bool reduced) {
  SideResult r;
  const bool ngx_side = side == Side::kNextGen;
  Built b = Build(spec, side, seed, probe, reduced);
  Machine& machine = *b.machine;
  CallRecorder& rec = *b.rec;

  std::vector<SimThread*> raw;
  for (auto& t : b.threads) {
    raw.push_back(t.get());
  }
  const double t0 = CpuNow();
  const double w0 = WallNow();
  Scheduler::Run(machine, raw);
  for (const int c : spec.app_cores) {
    Env env(machine, c);
    rec.Flush(env);
  }
  if (b.sys.fabric) {
    b.sys.fabric->DrainAll();
  }
  r.run_wall_s = WallNow() - w0;
  const double t1 = CpuNow();
  double start = t0;
  for (const double end : rec.segment_ends()) {
    r.run_s.push_back(end - start);
    start = end;
  }
  r.run_s.push_back(t1 - start);
  r.setups = {b.times};
  r.call_host_s = rec.call_host_s();

  for (const int c : spec.app_cores) {
    r.app += machine.core(c).pmu();
    r.wall_cycles = std::max(r.wall_cycles, machine.core(c).now());
  }
  if (ngx_side) {
    for (const int c : spec.server_cores) {
      r.server += machine.core(c).pmu();
    }
    r.books = ReadBooks(b.sys);
  }
  r.all = machine.TotalPmu();
  r.stats = rec.stats();
  r.failed_mallocs = rec.failed_mallocs();
  r.bytes_requested = rec.bytes_requested();
  r.malloc_cycles = std::move(rec.malloc_cycles());
  r.free_cycles = std::move(rec.free_cycles());
  r.hash = SimStateHash(machine, r);

  // The allocator's books balance after Flush. (Its malloc count is not the
  // workload's: NextGen's stash serves recycled blocks the server never
  // sees.)
  const std::string who =
      std::string(ngx_side ? "nextgen" : "mimalloc") + " seed " + std::to_string(seed) + ": ";
  if (r.stats.mallocs != r.stats.frees) {
    r.errors.push_back(who + "mallocs != frees after flush (" + std::to_string(r.stats.mallocs) +
                       " vs " + std::to_string(r.stats.frees) + ")");
  }
  if (r.stats.bytes_live != 0) {
    r.errors.push_back(who + "bytes_live = " + std::to_string(r.stats.bytes_live) +
                       " after flush");
  }
  for (const std::string& e : rec.errors()) {
    r.errors.push_back(who + e);
  }
  if (probe == Probe::kAudit && rec.live_blocks() != 0) {
    r.errors.push_back(who + std::to_string(rec.live_blocks()) + " blocks never freed");
  }
  if (RecordsTelemetry(probe)) {
    r.trace = ReadTrace(machine);
    const CycleAttribution& at = r.trace.attribution;
    if (at.client_path() + at.sync_stall + at.ring_wait + at.server_carve + at.server_drain() !=
        at.total()) {
      r.errors.push_back(who + "recorder buckets do not sum to the attributed total");
    }
  } else if (machine.telemetry().enabled() || !machine.telemetry().metrics().empty() ||
             machine.telemetry().tracer().size() != 0) {
    r.errors.push_back(who + "telemetry recorded during a pass without telemetry");
  }
  return r;
}

void Absorb(SideResult& total, SideResult run) {
  total.setups.insert(total.setups.end(), run.setups.begin(), run.setups.end());
  total.run_s.insert(total.run_s.end(), run.run_s.begin(), run.run_s.end());
  total.run_wall_s += run.run_wall_s;
  total.call_host_s += run.call_host_s;
  total.wall_cycles += run.wall_cycles;
  total.app += run.app;
  total.server += run.server;
  total.all += run.all;
  AllocatorStats& s = total.stats;
  s.mallocs += run.stats.mallocs;
  s.frees += run.stats.frees;
  s.bytes_requested += run.stats.bytes_requested;
  s.bytes_live += run.stats.bytes_live;
  s.mapped_bytes += run.stats.mapped_bytes;
  s.mmap_calls += run.stats.mmap_calls;
  s.munmap_calls += run.stats.munmap_calls;
  s.oom_failures += run.stats.oom_failures;
  total.malloc_cycles.insert(total.malloc_cycles.end(), run.malloc_cycles.begin(),
                             run.malloc_cycles.end());
  total.free_cycles.insert(total.free_cycles.end(), run.free_cycles.begin(),
                           run.free_cycles.end());
  total.failed_mallocs += run.failed_mallocs;
  total.bytes_requested += run.bytes_requested;
  for (const auto& [name, v] : run.books) {
    total.books[name] += v;
  }
  TraceDigest& t = total.trace;
  const TraceDigest& u = run.trace;
  t.attribution.client_op += u.attribution.client_op;
  t.attribution.sync_stall += u.attribution.sync_stall;
  t.attribution.ring_wait += u.attribution.ring_wait;
  t.attribution.server_carve += u.attribution.server_carve;
  t.attribution.server_busy += u.attribution.server_busy;
  t.slab_reuses += u.slab_reuses;
  t.slab_fresh += u.slab_fresh;
  t.sync_latency.Merge(u.sync_latency);
  t.trace_dropped_events += u.trace_dropped_events;
  total.errors.insert(total.errors.end(), run.errors.begin(), run.errors.end());
}

}  // namespace

void CallRecorder::Fail(std::string what) {
  if (errors_.size() < 8) {
    errors_.push_back(std::move(what));
  }
}

void CallRecorder::CountCall() {
  if (++calls_ % kSegmentCalls == 0) {
    segment_ends_.push_back(CpuNow());
  }
}

Addr CallRecorder::Malloc(Env& env, std::uint64_t size) {
  CountCall();
  const double h0 = time_calls_ ? WallNow() : 0.0;
  const std::uint64_t t0 = env.now();
  const Addr a = inner_->Malloc(env, size);
  if (time_calls_) {
    call_host_s_ += WallNow() - h0;
  }
  malloc_cycles_.push_back(env.now() - t0);
  bytes_requested_ += size;
  if (a == kNullAddr) {
    ++failed_mallocs_;
    return a;
  }
  if (!audit_) {
    return a;
  }
  if (a % 16 != 0) {
    Fail("malloc returned a misaligned block");
  }
  const auto next = live_.lower_bound(a);
  if (next != live_.end() && next->first < a + std::max<std::uint64_t>(size, 1)) {
    Fail("malloc returned a block overlapping a live one");
  }
  if (next != live_.begin()) {
    const auto prev = std::prev(next);
    if (prev->first + std::max<std::uint64_t>(prev->second, 1) > a) {
      Fail("malloc returned a block overlapping a live one");
    }
  }
  live_[a] = size;
  return a;
}

void CallRecorder::Free(Env& env, Addr addr) {
  CountCall();
  const double h0 = time_calls_ ? WallNow() : 0.0;
  const std::uint64_t t0 = env.now();
  inner_->Free(env, addr);
  if (time_calls_) {
    call_host_s_ += WallNow() - h0;
  }
  free_cycles_.push_back(env.now() - t0);
  if (audit_ && live_.erase(addr) != 1) {
    Fail("workload freed a block that was not live");
  }
}

void CallRecorder::Flush(Env& env) {
  const double h0 = time_calls_ ? WallNow() : 0.0;
  inner_->Flush(env);
  if (time_calls_) {
    call_host_s_ += WallNow() - h0;
  }
}

std::uint64_t Percentile(const std::vector<std::uint64_t>& sorted, double pct) {
  if (sorted.empty()) {
    return 0;
  }
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

SetupTimes TimeSetup(const WorkloadSpec& spec, Side side, std::uint64_t seed, bool reduced) {
  return Build(spec, side, RunSeed(spec, seed, 0), Probe::kNone, reduced).times;
}

SideResult RunSide(const WorkloadSpec& spec, Side side, std::uint64_t seed, Probe probe,
                   bool reduced) {
  SideResult total;
  Fnv chain;
  const int runs = reduced ? 1 : spec.seeds_per_run;
  for (int i = 0; i < runs; ++i) {
    SideResult run = RunOnce(spec, side, RunSeed(spec, seed, i), probe, reduced);
    chain.Mix(run.hash);
    Absorb(total, std::move(run));
  }
  total.hash = chain.value();
  std::sort(total.malloc_cycles.begin(), total.malloc_cycles.end());
  std::sort(total.free_cycles.begin(), total.free_cycles.end());
  if (side == Side::kNextGen) {
    for (const std::string& book : spec.expect_nonzero) {
      const auto it = total.books.find(book);
      if (it == total.books.end() || it->second == 0) {
        total.errors.push_back("nextgen: book " + book +
                               " read zero on a workload that exercises it");
      }
    }
  }
  return total;
}

}  // namespace perfbench
