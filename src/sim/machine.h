// The simulated machine: cores with private caches, a shared inclusive LLC
// whose lines hold the MESI-style coherence directory, two-level dTLBs and a
// flat DRAM model.
//
// Machine::Access is the single timed entry point. It walks the hierarchy,
// maintains coherence (invalidations, remote-HITM transfers, write-backs) and
// updates the requesting core's PMU counters -- the same counters the paper
// reports in Tables 1-3.
#ifndef NGX_SRC_SIM_MACHINE_H_
#define NGX_SRC_SIM_MACHINE_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/address_map.h"
#include "src/sim/cache.h"
#include "src/sim/core.h"
#include "src/sim/pmu.h"
#include "src/sim/sim_memory.h"
#include "src/sim/types.h"
#include "src/telemetry/telemetry.h"

namespace ngx {

struct MachineConfig {
  std::vector<CoreConfig> cores;
  CacheConfig llc{2 * 1024 * 1024, 16, 40};
  std::uint64_t mem_latency = 200;             // DRAM access, cycles
  std::uint64_t remote_transfer_latency = 110;  // cache-to-cache (HITM) service
  // Core-cluster topology: cores [i*k, (i+1)*k) form cluster i. When
  // same_cluster_transfer_latency is nonzero, HITM service between cores of
  // one cluster costs that instead of remote_transfer_latency (A72-style
  // shared-L2 clusters; what cluster-aware shard placement exploits). 0 = no
  // cluster structure, all transfers cost the remote latency.
  int cluster_cores = 0;
  std::uint64_t same_cluster_transfer_latency = 0;
  std::uint64_t invalidate_latency = 25;        // upgrade cost when sharers exist
  std::uint64_t atomic_rmw_latency = 67;        // cited average RMW cost [3]
  std::uint64_t atomic_remote_extra = 150;      // extra when the line is remotely owned
  std::uint64_t mmap_syscall_cycles = 2500;     // user/kernel mode switch + map
  // Whether cache-to-cache (HITM) services count as LLC misses, as Intel
  // uncore counters report them. On cluster machines (A72) where the peer
  // core shares an L2, same-cluster transfers are L2 events instead.
  bool count_hitm_as_llc_miss = true;
  // Next-line prefetcher: on a demand miss beyond the private hierarchy, the
  // following line is pulled into the LLC/L2 in the background (no latency
  // charged, no demand-miss counted). Off by default so miss counters stay
  // directly interpretable; bench_ablation_prefetch studies its effect.
  bool next_line_prefetch = false;

  // Homogeneous machine of `num_cores` default out-of-order cores.
  static MachineConfig Default(int num_cores);
  // A proportionally scaled-down machine (smaller caches and TLBs) for
  // scaled-down workloads: simulating xalancbmk's 1.3e12 instructions is
  // infeasible, so both the working set AND the cache/TLB reach shrink
  // together, preserving the pressure ratios the paper's Table 1 reflects.
  static MachineConfig ScaledWorkstation(int num_cores);
};

class Machine {
 public:
  // Dies unless the config has 1 to 32 cores: the directory's sharer mask
  // has one bit per core.
  explicit Machine(const MachineConfig& config);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int num_cores() const { return static_cast<int>(cores_.size()); }
  Core& core(int id) { return *cores_[static_cast<std::size_t>(id)]; }
  const Core& core(int id) const { return *cores_[static_cast<std::size_t>(id)]; }

  SimMemory& memory() { return memory_; }
  AddressMap& address_map() { return address_map_; }
  const MachineConfig& config() const { return config_; }

  // Observational telemetry (disabled by default; see src/telemetry/).
  // EnableTelemetry also names the per-core trace tracks and arms the
  // periodic PMU snapshot schedule when the config asks for one.
  Telemetry& telemetry() { return telemetry_; }
  const Telemetry& telemetry() const { return telemetry_; }
  void EnableTelemetry(const TelemetryConfig& config);

  // Performs a timed access of `size` bytes at `addr` on behalf of `core_id`.
  // Touches every covered cache line and page, maintains coherence and PMU
  // counters, and advances the core clock. Returns the raw latency in cycles
  // (before core-type shaping; useful for tests).
  std::uint64_t Access(int core_id, Addr addr, std::uint32_t size, AccessType type);

  // Charges `n` non-memory instructions on `core_id`.
  void Work(int core_id, std::uint64_t n) { core(core_id).Work(n); }

  // Charges a simulated mmap/munmap system call.
  void ChargeSyscall(int core_id);

  // Sum of all per-core counters.
  PmuCounters TotalPmu() const;

  // ---- Periodic timer hooks ----
  // Background work pinned to a core (e.g. a shard server's watermark
  // rebalancer or the fleet's epoch controller). A timer hook fires whenever
  // virtual time passes its next due point -- on the core's own clock if the
  // core got there, or on the scheduler's horizon if the core is lagging
  // (the core is pulled up to the due point first, as a real timer interrupt
  // would wake it) -- so it also reaches a core whose clock runs ahead of
  // every runnable thread. Hooks are removed by id so a registrant destroyed
  // before the machine cannot leave a dangling callback. None registered =
  // zero scheduling overhead and bit-identical behaviour.
  int AddTimerHook(int core_id, std::uint64_t period_cycles, std::function<void()> hook) {
    timer_hooks_.push_back(TimerHook{next_timer_hook_id_, core_id, period_cycles,
                                     core(core_id).now() + period_cycles, std::move(hook)});
    return next_timer_hook_id_++;
  }
  void RemoveTimerHook(int id) {
    for (std::size_t i = 0; i < timer_hooks_.size(); ++i) {
      if (timer_hooks_[i].id == id) {
        timer_hooks_.erase(timer_hooks_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  }
  // Re-pins a timer hook to another core without touching its cadence. The
  // next due point is kept, so the hook keeps its wall-clock schedule and
  // only the clock that gets pulled up changes. Mutating in place (no vector
  // resize) is the one re-pin that is safe from INSIDE the hook's own
  // callback: RunTimerHooks holds a reference into timer_hooks_ across the
  // call, so RemoveTimerHook + AddTimerHook there would dangle. The elastic
  // fleet's epoch controller uses this to follow the elected ticker shard.
  void MoveTimerHook(int id, int core_id) {
    for (TimerHook& t : timer_hooks_) {
      if (t.id == id) {
        t.core_id = core_id;
        return;
      }
    }
  }
  bool has_timer_hooks() const { return !timer_hooks_.empty(); }
  // Fires every hook whose due point has been reached by its core's clock or
  // by `horizon` (the scheduler's current virtual time front). Catches up
  // period by period so a long gap fires each missed tick, not just one.
  void RunTimerHooks(std::uint64_t horizon) {
    for (std::size_t i = 0; i < timer_hooks_.size(); ++i) {
      TimerHook& t = timer_hooks_[i];
      while (core(t.core_id).now() >= t.next_due || horizon >= t.next_due) {
        core(t.core_id).AdvanceTo(t.next_due);
        t.fn();
        t.next_due = std::max(t.next_due, core(t.core_id).now()) + t.period;
      }
    }
  }

  // ---- Test/diagnostic hooks ----
  // Which core (if any) holds `line` modified in its private caches.
  int OwnerOf(Addr line) const;
  // Bitmask of cores whose private caches hold `line`.
  std::uint32_t SharersOf(Addr line) const;
  bool LlcContains(Addr line) const { return llc_.Contains(LineBase(line)); }
  std::uint64_t memory_reads() const { return mem_reads_; }
  std::uint64_t memory_writes() const { return mem_writes_; }

 private:
  struct TimerHook {
    int id;
    int core_id;
    std::uint64_t period;
    std::uint64_t next_due;
    std::function<void()> fn;
  };

  std::uint64_t AccessLine(int core_id, Addr line, AccessType type);
  // Emits per-core PMU counter samples into the tracer when the core's clock
  // has crossed its next snapshot point. Reads counters and clocks only.
  void MaybePmuSnapshot(int core_id);
  // Takes a periodic flight-recorder heap snapshot when the accessing core's
  // clock has crossed the global next-due point. Rides the (deterministic)
  // access stream -- never timer hooks, whose catch-up AdvanceTo would make
  // recorder-on runs diverge from recorder-off ones. Reads state only.
  void MaybeRecorderSnapshot(int core_id);
  // Background fill of `line` into the LLC and the core's private caches
  // (prefetch): no latency, no demand counters, skipped if remotely owned.
  void PrefetchLine(int core_id, Addr line);
  std::uint64_t LookupTlb(int core_id, Addr addr, AccessType type);

  // Fills `line` into core's private caches (L2 then L1), handling evictions.
  void FillPrivate(int core_id, Addr line, bool dirty);
  void HandlePrivateEviction(int core_id, const Cache::Eviction& ev, bool outer_level);
  // Drops the line from a core's private hierarchy; returns true if any
  // private copy was dirty. Leaves the directory to the caller.
  bool DropFromPrivate(int core_id, Addr line);
  // Downgrades a remote modified owner on a read: write back, keep shared.
  void DowngradeOwner(int owner, Addr line);
  // Invalidates the private copies of every sharer in `e` except
  // `keep_core`; returns the number dropped.
  int InvalidateOthers(int keep_core, Addr line, Cache::LineState& e);
  // The LLC state of a privately cached line, which inclusion keeps in the
  // LLC: its directory entry and the LLC's dirty bit.
  Cache::LineState& LlcLine(Addr line);
  void WritebackToLlc(Addr line) { LlcLine(line).dirty = true; }
  void HandleLlcEviction(const Cache::Eviction& ev);

  MachineConfig config_;
  SimMemory memory_;
  AddressMap address_map_;
  std::vector<std::unique_ptr<Core>> cores_;
  Cache llc_;  // inclusive; its lines hold the coherence directory
  std::uint64_t mem_reads_ = 0;
  std::uint64_t mem_writes_ = 0;
  Telemetry telemetry_;
  bool pmu_snapshots_ = false;
  std::vector<std::uint64_t> next_pmu_snapshot_;  // per core, in cycles
  bool recorder_snapshots_ = false;
  std::uint64_t next_recorder_snapshot_ = 0;  // global, vs accessing core's clock
  std::vector<TimerHook> timer_hooks_;
  int next_timer_hook_id_ = 0;
};

}  // namespace ngx

#endif  // NGX_SRC_SIM_MACHINE_H_
