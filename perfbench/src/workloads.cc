#include "perfbench/src/workloads.h"

#include <utility>

#include "bench/bench_common.h"
#include "src/workload/alloc_ops.h"
#include "src/workload/rng.h"
#include "src/workload/xalanc.h"
#include "src/workload/xmalloc.h"

namespace perfbench {

using namespace ngx;

namespace {

struct Phase {
  std::uint32_t live_blocks = 0;
  std::uint32_t ops = 0;
  std::uint64_t min_size = 0;
  std::uint64_t max_size = 0;
};

// Closed loop over phases: fill the phase's working set, churn it (free a
// random block, allocate its replacement), then free every block one call
// per step. A null malloc ends the thread; the recorder counts it as failed.
class PhasedTenantThread : public SimThread {
 public:
  PhasedTenantThread(std::vector<Phase> phases, Allocator& alloc, int core, std::uint64_t seed)
      : phases_(std::move(phases)), alloc_(&alloc), core_(core), rng_(seed) {}

  int core_id() const override { return core_; }

  bool Step(Env& env) override {
    if (phase_ >= phases_.size()) {
      return false;
    }
    const Phase& p = phases_[phase_];
    if (draining_) {
      if (!blocks_.empty()) {
        TimedFree(env, *alloc_, blocks_.back());
        blocks_.pop_back();
        return true;
      }
      draining_ = false;
      done_ = 0;
      ++phase_;
      return phase_ < phases_.size();
    }
    if (blocks_.size() < p.live_blocks) {
      const Addr b = TimedMalloc(env, *alloc_, rng_.Range(p.min_size, p.max_size));
      if (b == kNullAddr) {
        return Abandon(env);
      }
      env.TouchWrite(b, 32);
      blocks_.push_back(b);
      return true;
    }
    if (done_ >= p.ops) {
      draining_ = true;
      return true;
    }
    const std::size_t i = rng_.Below(blocks_.size());
    TimedFree(env, *alloc_, blocks_[i]);
    const Addr b = TimedMalloc(env, *alloc_, rng_.Range(p.min_size, p.max_size));
    if (b == kNullAddr) {
      blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i));
      return Abandon(env);
    }
    env.TouchWrite(b, 32);
    env.Work(30);
    blocks_[i] = b;
    ++done_;
    return true;
  }

 private:
  // Frees what the thread still holds so the allocator's books can balance.
  bool Abandon(Env& env) {
    for (const Addr b : blocks_) {
      TimedFree(env, *alloc_, b);
    }
    blocks_.clear();
    return false;
  }

  std::vector<Phase> phases_;
  Allocator* alloc_;
  int core_;
  Rng rng_;
  std::vector<Addr> blocks_;
  std::size_t phase_ = 0;
  std::uint32_t done_ = 0;
  bool draining_ = false;
};

// bench_ablation_rebalance's two-phase skew: tenant 0 bursts 36-60 KiB
// buffers (one 64-KiB span each) well past its shard's slice, frees them and
// drops to small churn; the other tenants churn small blocks throughout.
class SkewedTenantMix : public Workload {
 public:
  std::string_view name() const override { return "skewed-tenant-mix"; }

  std::vector<std::unique_ptr<SimThread>> MakeThreads(Machine& machine, Allocator& alloc,
                                                      const std::vector<int>& cores,
                                                      std::uint64_t seed) override {
    (void)machine;
    const Phase burst{400, 300, 36 * 1024, 60 * 1024};
    const Phase small{400, 1500, 64, 256};
    std::vector<std::unique_ptr<SimThread>> threads;
    threads.reserve(cores.size());
    for (std::size_t i = 0; i < cores.size(); ++i) {
      // Every round regrows the burst tenant's partition and shrinks it
      // back, so growth and return both run several times per run.
      std::vector<Phase> phases;
      for (int round = 0; round < kRounds; ++round) {
        if (i == 0) {
          phases.push_back(burst);
        }
        phases.push_back(small);
      }
      threads.push_back(
          std::make_unique<PhasedTenantThread>(std::move(phases), alloc, cores[i], seed + 31 * i));
    }
    return threads;
  }

 private:
  static constexpr int kRounds = 3;
};

// Table 3's operating point, shared with bench_table3_nextgen and the
// determinism tests that pin its runs.
std::unique_ptr<Workload> MakeXalanc(bool reduced) {
  XalancConfig cfg = bench::XalancTable3Config();
  if (reduced) {
    cfg.documents = 2;
    cfg.nodes_per_doc = 1500;
  }
  return std::make_unique<XalancLike>(cfg);
}

std::unique_ptr<Workload> MakeXmalloc(bool reduced) {
  XmallocConfig cfg;
  cfg.ops_per_thread = reduced ? 1000 : 5000;
  return std::make_unique<XmallocLike>(cfg);
}

// One instance is already small; a reduced run only drops to one seed.
std::unique_ptr<Workload> MakeSkew(bool reduced) {
  (void)reduced;
  return std::make_unique<SkewedTenantMix>();
}

std::vector<int> Range(int first, int n) {
  std::vector<int> v;
  for (int i = 0; i < n; ++i) {
    v.push_back(first + i);
  }
  return v;
}

// xalanc-t3: the repo's best single-shard configuration (prediction, the
// pipelined stash with refill mark 2 and two 7-entry halves, packed
// hugepage spans and hugepage-backed fabric metadata) on Table 3's machine.
WorkloadSpec XalancT3() {
  WorkloadSpec s;
  s.name = "xalanc-t3";
  s.machine = bench::Table3Machine();
  s.ngx = NgxConfig::PaperPrototype();
  s.ngx.prediction = true;
  s.ngx.stash_pipeline = true;
  s.ngx.stash_refill_mark = 2;
  s.ngx.stash_capacity = 14;
  s.ngx.hugepage_spans = true;
  s.ngx.hugepage_packing = true;
  s.ngx.hugepage_metadata = true;
  s.app_cores = {0};
  s.server_cores = {1};
  s.expect_nonzero = {"stash_hits", "stash_recycled_frees", "map_mapped_bytes"};
  s.make_workload = &MakeXalanc;
  return s;
}

// xmalloc-fabric: the paper's sync-malloc/async-free prototype on two
// shards, every free cross-thread and batched eight per ring doorbell.
WorkloadSpec XmallocFabric() {
  WorkloadSpec s;
  s.name = "xmalloc-fabric";
  s.machine = MachineConfig::Default(6);
  s.ngx = NgxConfig::PaperPrototype();
  s.ngx.num_shards = 2;
  s.ngx.free_batch = 8;
  s.app_cores = Range(0, 4);
  s.server_cores = Range(4, 2);
  s.seeds_per_run = 16;
  s.expect_nonzero = {"free_flushes", "ring_doorbells", "map_mapped_bytes"};
  s.make_workload = &MakeXmalloc;
  return s;
}

// skew-span-economy: four tenants on four shards with the whole span
// economy on -- segment heap, donation, watermarks (with the periodic
// timer), packed hugepages, adaptive routing with parking -- and a 64-MiB
// heap window (256 spans a slice) that the burst tenant outgrows.
WorkloadSpec SkewSpanEconomy() {
  WorkloadSpec s;
  s.name = "skew-span-economy";
  s.machine = MachineConfig::Default(8);
  s.ngx = NgxConfig::PaperPrototype();
  s.ngx.num_shards = 4;
  s.ngx.heap_kind = HeapKind::kSegment;
  s.ngx.span_donation = true;
  s.ngx.span_low_mark = 16;
  s.ngx.span_high_mark = 32;
  s.ngx.watermark_timer_cycles = 50000;
  s.ngx.hugepage_spans = true;
  s.ngx.hugepage_packing = true;
  s.ngx.routing = RoutingKind::kAdaptive;
  s.ngx.adaptive_routing = true;
  s.ngx.epoch_cycles = 60000;
  s.ngx.park_threshold_ops = 100;
  s.ngx.wake_queue_depth = 64;
  s.ngx.heap_window = 64ull << 20;
  s.app_cores = Range(0, 4);
  s.server_cores = Range(4, 4);
  s.seeds_per_run = 16;
  s.expect_nonzero = {"donated_spans", "rebalance_moves", "routing_epochs", "map_mapped_bytes"};
  s.make_workload = &MakeSkew;
  return s;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"xalanc-t3", "xmalloc-fabric", "skew-span-economy"};
}

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  WorkloadSpec s;
  if (name == "xalanc-t3") {
    s = XalancT3();
  } else if (name == "xmalloc-fabric") {
    s = XmallocFabric();
  } else if (name == "skew-span-economy") {
    s = SkewSpanEconomy();
  } else {
    return false;
  }
  s.mi.hugepage_backing = s.ngx.hugepage_spans;
  *out = std::move(s);
  return true;
}

}  // namespace perfbench
