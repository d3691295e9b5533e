// Ablation for the server-side carve path (DESIGN.md §10): what does the
// segment + slab heap's carve path cost, and does its slab recycling hit?
//
// Part 1 prices the heap in isolation: the same single-core churn runs
// against both ServerHeap layouts and we charge only the cycles spent inside
// Malloc/Free. The aggregated heap pushes and pops intrusive links stored in
// the blocks themselves; the segment heap keeps each slab's freelist count,
// bump cursor and hot entries on one 64-byte side-table header line.
//
// Part 2 prices the segment heap in situ: the offloaded fabric runs a quiet
// uniform churn and a skewed tenant mix that forces span donation. Server
// handler time comes from the engines' carve-cycle digests; the
// slab-recycle split (freelist pops + unit/segment reuse vs fresh mappings)
// shows the recycling machinery staying effective while segments leave and
// return.
#include "bench/bench_common.h"

#include "src/alloc/layout.h"
#include "src/core/segment_heap.h"
#include "src/core/server_heap.h"
#include "src/workload/alloc_ops.h"
#include "src/workload/churn.h"
#include "src/workload/rng.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

constexpr HeapKind kKinds[] = {HeapKind::kAggregated, HeapKind::kSegment};

struct DirectPoint {
  HeapKind kind;
  bool phased = false;
  std::uint64_t ops = 0;           // mallocs + frees timed
  std::uint64_t heap_cycles = 0;   // cycles inside Malloc/Free only
  double recycle_hit_rate = -1.0;  // segment layout only
  std::uint64_t fresh_segments = 0;
  std::uint64_t segment_reuses = 0;
  double CyclesPerOp() const {
    return static_cast<double>(heap_cycles) / static_cast<double>(ops);
  }
};

// Single-core churn straight against the heap. Only the Malloc/Free calls
// are timed, so the number is the carve path itself, not the driver loop.
// Two shapes:
//  * steady: fill a working set, then replace random blocks one at a time.
//  * phased: alloc a whole working set, then free all of it, repeatedly --
//    the xalanc shape (documents built then dropped). Bulk frees leave
//    thousands of free blocks per class, so the refill phase walks them
//    back out: through cold block lines for the aggregated lists, through
//    each slab's header line for the segment heap.
DirectPoint RunDirect(HeapKind kind, bool phased) {
  Machine machine(MachineConfig::Default(1));
  ServerHeapConfig cfg;
  cfg.heap_kind = kind;
  auto heap = MakeServerHeap(machine, kNgxHeapBase, kNgxMetaBase, cfg);
  Env env(machine, 0);
  Rng rng(11);

  constexpr std::uint32_t kLive = 1500;
  constexpr std::uint32_t kSteadyOps = 20000;
  constexpr std::uint32_t kPhasedLive = 4000;
  constexpr std::uint32_t kPhasedRounds = 4;
  constexpr std::uint64_t kMin = 64;
  constexpr std::uint64_t kMax = 4096;

  DirectPoint out;
  out.kind = kind;
  out.phased = phased;
  std::vector<Addr> blocks;
  auto timed_malloc = [&](std::uint64_t size) {
    const std::uint64_t t0 = env.now();
    const Addr a = heap->Malloc(env, size);
    out.heap_cycles += env.now() - t0;
    ++out.ops;
    return a;
  };
  auto timed_free = [&](Addr a) {
    const std::uint64_t t0 = env.now();
    heap->Free(env, a);
    out.heap_cycles += env.now() - t0;
    ++out.ops;
  };

  if (phased) {
    blocks.reserve(kPhasedLive);
    for (std::uint32_t round = 0; round < kPhasedRounds; ++round) {
      for (std::uint32_t i = 0; i < kPhasedLive; ++i) {
        blocks.push_back(timed_malloc(rng.Range(kMin, kMax)));
      }
      for (const Addr a : blocks) {
        timed_free(a);
      }
      blocks.clear();
    }
  } else {
    blocks.reserve(kLive);
    for (std::uint32_t i = 0; i < kLive; ++i) {
      blocks.push_back(timed_malloc(rng.Range(kMin, kMax)));
    }
    for (std::uint32_t i = 0; i < kSteadyOps; ++i) {
      const std::size_t j = rng.Below(blocks.size());
      timed_free(blocks[j]);
      blocks[j] = timed_malloc(rng.Range(kMin, kMax));
    }
    for (const Addr a : blocks) {
      timed_free(a);
    }
  }

  if (const auto* seg = dynamic_cast<const SegmentHeap*>(heap.get())) {
    const SegmentHeapStats& s = seg->segment_stats();
    out.recycle_hit_rate = static_cast<double>(s.freelist_pops) /
                           static_cast<double>(s.freelist_pops + s.bump_carves);
    out.fresh_segments = s.fresh_segments;
    out.segment_reuses = s.segment_reuses;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Part 2: the fabric. The skewed mix is the span-donation ablation's shape:
// one tenant churning 8-16 KiB buffers against a slice sized for less, so its
// shard must refill over kDonateSpan while the light tenant churns on.
// ---------------------------------------------------------------------------

struct TenantConfig {
  std::uint32_t live_blocks = 0;
  std::uint32_t ops = 0;
  std::uint64_t min_size = 0;
  std::uint64_t max_size = 0;
};

class TenantThread : public SimThread {
 public:
  TenantThread(const TenantConfig& config, Allocator& alloc, int core, std::uint64_t seed)
      : config_(config), alloc_(&alloc), core_(core), rng_(seed) {
    blocks_.reserve(config.live_blocks);
  }

  int core_id() const override { return core_; }

  bool Step(Env& env) override {
    if (blocks_.size() < config_.live_blocks) {
      const Addr b = TimedMalloc(env, *alloc_, rng_.Range(config_.min_size, config_.max_size));
      if (b == kNullAddr) {
        return false;
      }
      env.TouchWrite(b, 32);
      blocks_.push_back(b);
      return true;
    }
    if (done_ >= config_.ops) {
      for (const Addr b : blocks_) {
        TimedFree(env, *alloc_, b);
      }
      blocks_.clear();
      return false;
    }
    const std::size_t i = rng_.Below(blocks_.size());
    TimedFree(env, *alloc_, blocks_[i]);
    const Addr b = TimedMalloc(env, *alloc_, rng_.Range(config_.min_size, config_.max_size));
    if (b == kNullAddr) {
      blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i));
      return false;
    }
    env.TouchWrite(b, 32);
    env.Work(30);
    blocks_[i] = b;
    ++done_;
    return true;
  }

 private:
  TenantConfig config_;
  Allocator* alloc_;
  int core_;
  Rng rng_;
  std::vector<Addr> blocks_;
  std::uint32_t done_ = 0;
};

class TenantMix : public Workload {
 public:
  TenantMix(TenantConfig heavy, TenantConfig light) : heavy_(heavy), light_(light) {}
  std::string_view name() const override { return "tenant-mix"; }
  std::vector<std::unique_ptr<SimThread>> MakeThreads(Machine& machine, Allocator& alloc,
                                                      const std::vector<int>& cores,
                                                      std::uint64_t seed) override {
    (void)machine;
    std::vector<std::unique_ptr<SimThread>> threads;
    threads.reserve(cores.size());
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const TenantConfig& cfg = i == 0 ? heavy_ : light_;
      threads.push_back(std::make_unique<TenantThread>(cfg, alloc, cores[i], seed + 31 * i));
    }
    return threads;
  }

 private:
  TenantConfig heavy_;
  TenantConfig light_;
};

constexpr int kClients = 2;
constexpr int kShards = 2;

struct FabricPoint {
  bool donation_churn = false;
  std::uint64_t wall = 0;
  std::uint64_t carve_cycles = 0;  // kMalloc/kFree handler time, all shards
  std::uint64_t server_ops = 0;    // requests those handlers served
  std::uint64_t donated_spans = 0;
  std::uint64_t slab_reuses = 0;
  std::uint64_t fresh_slab_carves = 0;
  bool books_balance = false;
  double CyclesPerOp() const {
    return static_cast<double>(carve_cycles) / static_cast<double>(server_ops);
  }
  double RecycleHitRate() const {
    const std::uint64_t total = slab_reuses + fresh_slab_carves;
    return total == 0 ? -1.0
                      : static_cast<double>(slab_reuses) / static_cast<double>(total);
  }
};

FabricPoint RunFabric(BenchCli& cli, bool donation_churn) {
  Machine machine(MachineConfig::Default(kClients + kShards));
  cli.EnableTelemetry(machine, /*allow_trace=*/false);
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = kShards;
  cfg.span_donation = true;
  // 4 KiB-backed spans for the same reason as the donation ablation: huge
  // pages would turn the slice budget into an alignment artifact.
  cfg.hugepage_spans = false;
  // The donation-churn mix retains ~9.5 MiB on the heavy shard against an
  // 8 MiB slice, so it must refill over the fabric; the quiet mix stays far
  // inside its slice and never donates.
  cfg.heap_window = 16ull << 20;
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*first_server_core=*/kClients);

  TenantConfig heavy;
  TenantConfig light;
  if (donation_churn) {
    heavy.live_blocks = 800;
    heavy.ops = 1200;
    heavy.min_size = 8 * 1024;
    heavy.max_size = 16 * 1024;
    light.live_blocks = 400;
    light.ops = 3000;
    light.min_size = 64;
    light.max_size = 256;
  } else {
    heavy = light = TenantConfig{600, 3000, 64, 2048};
  }
  TenantMix workload(heavy, light);

  RunOptions opt;
  opt.cores = FirstCores(kClients);
  opt.seed = 7;
  for (int s = 0; s < kShards; ++s) {
    opt.server_cores.push_back(kClients + s);
  }
  const RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  cli.Capture(machine);

  const OffloadEngineStats total = sys.fabric->TotalStats();
  const AllocatorStats a = sys.allocator->stats();
  FabricPoint out;
  out.donation_churn = donation_churn;
  out.wall = r.wall_cycles;
  out.carve_cycles = total.carve_cycles;
  out.server_ops = total.sync_requests + total.async_ops;
  out.donated_spans = sys.allocator->directory()->total_donated();
  for (int s = 0; s < kShards; ++s) {
    const SegmentHeapStats& seg =
        dynamic_cast<const SegmentHeap&>(sys.allocator->heap(s)).segment_stats();
    out.slab_reuses += seg.unit_reuses + seg.segment_reuses;
    out.fresh_slab_carves += seg.fresh_segments;
  }
  out.books_balance = a.mallocs == a.frees && a.bytes_live == 0;
  return out;
}

std::string HitRateCell(double rate) {
  return rate < 0.0 ? std::string("-") : FormatFixed(100.0 * rate, 1) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_server_carve", argc, argv);
  std::cout << "=== Ablation: server carve path (segment + slab heap) ===\n\n";

  std::cout << "--- heap in isolation (single core, 64-4096 B; only Malloc/Free\n"
            << "    cycles are charged). steady = replace one random block at a\n"
            << "    time; phased = alloc 4000 then free all, x4 (xalanc shape) ---\n";
  TextTable dt({"heap", "shape", "cycles/op", "slab-recycle hits", "fresh segments",
                "segment reuses"});
  std::vector<DirectPoint> direct;
  for (const bool phased : {false, true}) {
    for (const HeapKind kind : kKinds) {
      const DirectPoint p = RunDirect(kind, phased);
      direct.push_back(p);
      dt.AddRow({std::string(HeapKindName(kind)), phased ? "phased" : "steady",
                 FormatFixed(p.CyclesPerOp(), 1), HitRateCell(p.recycle_hit_rate),
                 p.recycle_hit_rate < 0.0 ? "-" : FormatInt(p.fresh_segments),
                 p.recycle_hit_rate < 0.0 ? "-" : FormatInt(p.segment_reuses)});
      std::cerr << "[done] direct " << HeapKindName(kind)
                << (phased ? " phased" : " steady") << "\n";
    }
  }
  std::cout << dt.ToString() << "\n";

  std::cout << "--- offloaded fabric, segment heap (" << kClients << " clients / " << kShards
            << " shards, donation on;\n    \"donation churn\" = one tenant's 8-16 KiB"
            << " working set overruns its 8 MiB slice) ---\n";
  TextTable ft({"donation churn", "server carve cycles", "carve cycles/op", "donated spans",
                "slab-recycle hits", "books"});
  std::vector<FabricPoint> fabric;
  for (const bool churn : {false, true}) {
    const FabricPoint p = RunFabric(cli, churn);
    fabric.push_back(p);
    ft.AddRow({churn ? "on" : "off", FormatSci(static_cast<double>(p.carve_cycles)),
               FormatFixed(p.CyclesPerOp(), 1), FormatInt(p.donated_spans),
               HitRateCell(p.RecycleHitRate()), p.books_balance ? "balanced" : "LEAK"});
    std::cerr << "[done] fabric donation_churn=" << (churn ? "on" : "off") << "\n";
  }
  std::cout << ft.ToString() << "\n";

  // direct[] runs kKinds for each shape: aggregated then segment, steady
  // then phased.
  const DirectPoint& d_agg_steady = direct[0];
  const DirectPoint& d_segm_steady = direct[1];
  const DirectPoint& d_agg_phased = direct[2];
  const DirectPoint& d_segm_phased = direct[3];
  std::cout << "expectation: the slab header line keeps the segment heap's cost flat\n"
            << "across shapes (steady " << FormatFixed(d_segm_steady.CyclesPerOp(), 1)
            << " vs aggregated " << FormatFixed(d_agg_steady.CyclesPerOp(), 1)
            << " cycles/op; phased " << FormatFixed(d_segm_phased.CyclesPerOp(), 1)
            << " vs " << FormatFixed(d_agg_phased.CyclesPerOp(), 1) << "),\n"
            << "while the aggregated lists walk cold block lines after bulk frees.\n"
            << "Unit-sized blocks under donation churn are the segment layout's\n"
            << "worst case -- every malloc/free walks the segment directory -- but\n"
            << "the recycle hit rate stays high and every run's books balance.\n";

  JsonValue djson = JsonValue::Array();
  for (const DirectPoint& p : direct) {
    JsonValue o = JsonValue::Object();
    o.Set("heap_kind", JsonValue(std::string(HeapKindName(p.kind))));
    o.Set("shape", JsonValue(std::string(p.phased ? "phased" : "steady")));
    o.Set("heap_cycles", JsonValue(p.heap_cycles));
    o.Set("ops", JsonValue(p.ops));
    o.Set("cycles_per_op", JsonValue(p.CyclesPerOp()));
    if (p.recycle_hit_rate >= 0.0) {
      o.Set("recycle_hit_rate", JsonValue(p.recycle_hit_rate));
      o.Set("fresh_segments", JsonValue(p.fresh_segments));
      o.Set("segment_reuses", JsonValue(p.segment_reuses));
    }
    djson.Push(o);
  }
  cli.Set("direct", djson);
  JsonValue fjson = JsonValue::Array();
  for (const FabricPoint& p : fabric) {
    JsonValue o = JsonValue::Object();
    o.Set("donation_churn", JsonValue(p.donation_churn));
    o.Set("wall_cycles", JsonValue(p.wall));
    o.Set("carve_cycles", JsonValue(p.carve_cycles));
    o.Set("server_ops", JsonValue(p.server_ops));
    o.Set("carve_cycles_per_op", JsonValue(p.CyclesPerOp()));
    o.Set("donated_spans", JsonValue(p.donated_spans));
    o.Set("slab_reuses", JsonValue(p.slab_reuses));
    o.Set("fresh_slab_carves", JsonValue(p.fresh_slab_carves));
    o.Set("books_balance", JsonValue(p.books_balance));
    fjson.Push(o);
  }
  cli.Set("fabric", fjson);

  cli.Metric("direct_steady_cycles_per_op_aggregated", d_agg_steady.CyclesPerOp());
  cli.Metric("direct_steady_cycles_per_op_segment", d_segm_steady.CyclesPerOp());
  cli.Metric("direct_phased_cycles_per_op_aggregated", d_agg_phased.CyclesPerOp());
  cli.Metric("direct_phased_cycles_per_op_segment", d_segm_phased.CyclesPerOp());
  cli.Metric("segment_recycle_hit_rate_direct", d_segm_phased.recycle_hit_rate);
  bool books = true;
  for (const FabricPoint& p : fabric) {
    books = books && p.books_balance;
    const std::string prefix =
        std::string("fabric_segment") + (p.donation_churn ? "_donation" : "_quiet");
    cli.Metric(prefix + "_carve_cycles", p.carve_cycles);
    cli.Metric(prefix + "_carve_cycles_per_op", p.CyclesPerOp());
    cli.Metric(prefix + "_recycle_hit_rate", p.RecycleHitRate());
    cli.Metric(prefix + "_donated_spans", p.donated_spans);
  }
  cli.Metric("fabric_books_balanced", books ? 1 : 0);
  return cli.Finish();
}
