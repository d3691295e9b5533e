// Ablation for adaptive traffic-matrix routing + the elastic allocator-core
// fleet (DESIGN.md §14): at a FIXED shard count, what does feedback-driven
// placement buy over least_loaded, and how much allocator-core capacity does
// the break-even controller hand back when traffic ebbs?
//
// The workload is a diurnal multi-tenant mix whose skew shifts twice: in
// phase 1 tenants 0-1 churn hot while 2-3 tick over; in phase 2 the skew
// flips to tenants 2; in phase 3 every tenant goes cold (the overnight
// valley). least_loaded sees only instantaneous queue depths -- with
// synchronous mallocs those are almost always zero, so ties break to the
// laggiest server clock and the tenants pile onto the same shard and
// serialize. The adaptive policy packs each tenant onto a home shard by
// observed epoch traffic (isolating the hot tenants), re-packs with
// hysteresis when the skew flips (client moves), and the epoch controller
// parks shards whose op rate falls below break-even -- during the valley the
// fleet shrinks toward one active shard and the parked cores' cycles are the
// measured §3.1.1 dividend.
#include "bench/bench_common.h"

#include "src/workload/alloc_ops.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

constexpr int kClients = 4;
constexpr int kShards = 4;

struct Phase {
  std::uint32_t live_blocks = 0;
  std::uint32_t ops = 0;
  std::uint64_t min_size = 0;
  std::uint64_t max_size = 0;
  std::uint32_t work = 0;  // app compute per op (cold tenants mostly compute)
};

// Same skeleton as the rebalance bench's phased tenant: fill the phase's
// working set, churn it, drain one block per step, move on. OOM stops the
// thread and leaves its story in partition_oom_failures.
class DiurnalTenantThread : public SimThread {
 public:
  DiurnalTenantThread(std::vector<Phase> phases, Allocator& alloc, int core,
                      std::uint64_t seed)
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
        return false;
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
      return false;
    }
    env.TouchWrite(b, 32);
    env.Work(p.work);
    blocks_[i] = b;
    ++done_;
    return true;
  }

 private:
  std::vector<Phase> phases_;
  Allocator* alloc_;
  int core_;
  Rng rng_;
  std::vector<Addr> blocks_;
  std::size_t phase_ = 0;
  std::uint32_t done_ = 0;
  bool draining_ = false;
};

class DiurnalMix : public Workload {
 public:
  std::string_view name() const override { return "diurnal-skew-shift"; }
  std::vector<std::unique_ptr<SimThread>> MakeThreads(Machine& machine, Allocator& alloc,
                                                      const std::vector<int>& cores,
                                                      std::uint64_t seed) override {
    (void)machine;
    // Hot and cold phases are tuned to near-equal wall time, so the skew
    // flips line up across tenants in virtual time. Each tenant churns its
    // OWN size band (disjoint size classes): pinned routing keeps a home
    // shard's slabs warm for exactly its tenants' classes, while spreading
    // makes every shard carry -- and carve -- every tenant's classes.
    struct Band {
      std::uint64_t min_size;
      std::uint64_t max_size;
    };
    const Band bands[kClients] = {{64, 128}, {512, 768}, {2048, 3072}, {192, 256}};
    auto hot = [&](int t) { return Phase{160, 1200, bands[t].min_size, bands[t].max_size, 30}; };
    auto cold = [&](int t) { return Phase{8, 120, bands[t].min_size, bands[t].max_size, 2000}; };
    const std::vector<std::vector<Phase>> schedules = {
        {hot(0), hot(0), cold(0)},    // tenant 0: busy all day, idles overnight
        {hot(1), cold(1), cold(1)},   // tenant 1: morning-heavy
        {cold(2), hot(2), cold(2)},   // tenant 2: evening-heavy (the skew flip)
        {cold(3), cold(3), cold(3)},  // tenant 3: background tick-over
    };
    std::vector<std::unique_ptr<SimThread>> threads;
    threads.reserve(cores.size());
    for (std::size_t i = 0; i < cores.size(); ++i) {
      threads.push_back(std::make_unique<DiurnalTenantThread>(
          schedules[i % schedules.size()], alloc, cores[i], seed + 31 * i));
    }
    return threads;
  }
};

struct CasePoint {
  std::string variant;
  std::uint64_t wall = 0;
  std::uint64_t busiest_sync_p99 = 0;
  std::uint64_t busiest_busy_waits = 0;
  std::uint64_t partition_ooms = 0;
  std::vector<HistogramSummary> sync_latency;  // per shard
  std::uint64_t mallocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t routing_epochs = 0;
  std::uint64_t client_moves = 0;
  std::uint64_t shards_parked = 0;
  std::uint64_t parked_core_cycles = 0;
  int min_active_shards = kShards;
  std::vector<FleetEpoch> timeline;
};

enum class Variant { kLeastLoaded, kStaticByClient, kAdaptive };

std::string VariantName(Variant v) {
  switch (v) {
    case Variant::kLeastLoaded:
      return "least_loaded";
    case Variant::kStaticByClient:
      return "static_by_client";
    case Variant::kAdaptive:
      return "adaptive";
  }
  return "?";
}

CasePoint RunCase(BenchCli& cli, Variant v) {
  Machine machine(MachineConfig::Default(kClients + kShards));
  cli.EnableTelemetry(machine, /*allow_trace=*/v == Variant::kAdaptive);
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = kShards;
  cfg.hugepage_spans = false;
  cfg.heap_window = 64ull << 20;  // 256 spans per shard
  cfg.span_donation = true;       // same span economy for every variant
  switch (v) {
    case Variant::kLeastLoaded:
      cfg.routing = RoutingKind::kLeastLoaded;
      break;
    case Variant::kStaticByClient:
      cfg.routing = RoutingKind::kStaticByClient;
      break;
    case Variant::kAdaptive:
      cfg.routing = RoutingKind::kAdaptive;
      cfg.adaptive_routing = true;
      cfg.epoch_cycles = 60000;
      // Break-even: a shard below ~100 fabric ops per epoch is not earning
      // its core. A hot tenant clears this ~5x over, a lone cold tenant does
      // not, and a shard holding BOTH cold tenants sits just above it -- so
      // the hot fleet settles at {hot, hot, cold-pair} and the valley
      // shrinks further.
      cfg.park_threshold_ops = 100;
      // Own-ring backlog at the ring capacity wakes a parked shard; the
      // steady free sawtooth below that never does.
      cfg.wake_queue_depth = 64;
      break;
  }
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*first_server_core=*/kClients);

  DiurnalMix workload;
  RunOptions opt;
  opt.cores = FirstCores(kClients);
  opt.seed = 11;
  for (int s = 0; s < kShards; ++s) {
    opt.server_cores.push_back(kClients + s);
  }
  const RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  cli.Capture(machine);

  CasePoint out;
  out.variant = VariantName(v);
  out.wall = r.wall_cycles;
  // "Busiest shard" is the one that served the most sync mallocs; its p99 is
  // the latency a tenant on the hot path actually feels. (The max over ALL
  // shards would be quantization noise from shards that served a handful of
  // warm-up ops before parking.)
  int busiest_shard = 0;
  for (int s = 1; s < kShards; ++s) {
    if (r.shard_sync_latency[static_cast<std::size_t>(s)].count >
        r.shard_sync_latency[static_cast<std::size_t>(busiest_shard)].count) {
      busiest_shard = s;
    }
  }
  out.busiest_sync_p99 = r.shard_sync_latency[static_cast<std::size_t>(busiest_shard)].p99;
  out.busiest_busy_waits = sys.fabric->shard_stats(busiest_shard).server_busy_waits;
  out.sync_latency = r.shard_sync_latency;
  out.partition_ooms = sys.allocator->partition_oom_failures();
  out.mallocs = r.alloc_stats.mallocs;
  out.frees = r.alloc_stats.frees;
  const ControlPlane& control = *sys.allocator->control();
  out.routing_epochs = control.routing_epochs();
  out.client_moves = control.client_moves();
  out.shards_parked = control.shards_parked();
  out.parked_core_cycles = control.parked_core_cycles();
  out.timeline = control.fleet_timeline();
  for (const FleetEpoch& fe : out.timeline) {
    out.min_active_shards = std::min(out.min_active_shards, fe.active_shards);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_adaptive_routing", argc, argv);
  std::cout << "=== Ablation: adaptive routing + elastic allocator-core fleet ===\n\n";
  std::cout << kClients << " tenants / " << kShards
            << " shards, diurnal skew-shifting mix: tenants 0-1 hot in phase 1,\n"
            << "tenant 2 hot in phase 2, everyone cold in phase 3. All variants run\n"
            << "the SAME shard count; only malloc placement (and, for adaptive, the\n"
            << "park/wake controller) differs. \"parked kcycles\" is allocator-core\n"
            << "capacity released while shards sat parked.\n\n";

  TextTable t({"routing", "wall cycles", "sync p99 (busiest shard)", "busy waits (busiest shard)",
               "epochs", "client moves", "parks", "min active", "parked kcycles", "OOMs"});
  std::vector<CasePoint> points;
  for (const Variant v : {Variant::kLeastLoaded, Variant::kStaticByClient, Variant::kAdaptive}) {
    const CasePoint p = RunCase(cli, v);
    points.push_back(p);
    t.AddRow({p.variant, FormatSci(static_cast<double>(p.wall)), FormatInt(p.busiest_sync_p99),
              FormatInt(p.busiest_busy_waits), FormatInt(p.routing_epochs),
              FormatInt(p.client_moves), FormatInt(p.shards_parked),
              FormatInt(static_cast<std::uint64_t>(p.min_active_shards)),
              FormatInt(p.parked_core_cycles / 1000), FormatInt(p.partition_ooms)});
    std::cerr << "[done] routing=" << p.variant << "\n";
  }
  std::cout << t.ToString() << "\n";

  const CasePoint& least = points[0];
  const CasePoint& adapt = points[2];
  std::cout << "busiest-shard sync p99: least_loaded -> " << least.busiest_sync_p99
            << ", adaptive -> " << adapt.busiest_sync_p99 << "\n";
  std::cout << "fleet: " << adapt.routing_epochs << " epochs, " << adapt.client_moves
            << " client moves, " << adapt.shards_parked << " park transitions, fleet floor "
            << adapt.min_active_shards << "/" << kShards << " shards, "
            << adapt.parked_core_cycles << " parked core cycles\n";
  std::cout << "expectation: adaptive's busiest-shard sync p99 beats least_loaded at the\n"
            << "same shard count, at least one shard parks during the cold phase, and\n"
            << "every variant finishes OOM-free with balanced books.\n";

  JsonValue cases = JsonValue::Array();
  for (const CasePoint& p : points) {
    JsonValue o = JsonValue::Object();
    o.Set("routing", JsonValue(p.variant));
    o.Set("wall_cycles", JsonValue(p.wall));
    o.Set("sync_p99_max_shard", JsonValue(p.busiest_sync_p99));
    o.Set("busy_waits_max_shard", JsonValue(p.busiest_busy_waits));
    o.Set("partition_oom_failures", JsonValue(p.partition_ooms));
    o.Set("mallocs", JsonValue(p.mallocs));
    o.Set("frees", JsonValue(p.frees));
    o.Set("routing_epochs", JsonValue(p.routing_epochs));
    o.Set("client_moves", JsonValue(p.client_moves));
    o.Set("shards_parked", JsonValue(p.shards_parked));
    o.Set("min_active_shards", JsonValue(static_cast<std::uint64_t>(p.min_active_shards)));
    o.Set("parked_core_cycles", JsonValue(p.parked_core_cycles));
    JsonValue lat = JsonValue::Array();
    for (const HistogramSummary& h : p.sync_latency) {
      lat.Push(SummaryJson(h));
    }
    o.Set("shard_sync_latency", lat);
    JsonValue tl = JsonValue::Array();
    for (const FleetEpoch& fe : p.timeline) {
      JsonValue e = JsonValue::Object();
      e.Set("cycle", JsonValue(fe.cycle));
      e.Set("epoch_ops", JsonValue(fe.epoch_ops));
      e.Set("active_shards", JsonValue(static_cast<std::uint64_t>(fe.active_shards)));
      e.Set("parked_shards", JsonValue(static_cast<std::uint64_t>(fe.parked_shards)));
      e.Set("client_moves", JsonValue(fe.client_moves));
      tl.Push(e);
    }
    o.Set("fleet_timeline", tl);
    cases.Push(o);
  }
  cli.Set("cases", cases);

  bool balanced = true;
  std::uint64_t ooms = 0;
  for (const CasePoint& p : points) {
    balanced = balanced && p.mallocs == p.frees;
    ooms += p.partition_ooms;
  }
  cli.Metric("busiest_sync_p99_least_loaded", least.busiest_sync_p99);
  cli.Metric("busiest_sync_p99_adaptive", adapt.busiest_sync_p99);
  cli.Metric("routing_epochs_adaptive", adapt.routing_epochs);
  cli.Metric("client_moves_adaptive", adapt.client_moves);
  cli.Metric("shards_parked_adaptive", adapt.shards_parked);
  cli.Metric("min_active_shards_adaptive",
             static_cast<std::uint64_t>(adapt.min_active_shards));
  cli.Metric("parked_core_cycles_adaptive", adapt.parked_core_cycles);
  cli.Metric("partition_ooms_total", ooms);
  cli.Metric("books_balanced", JsonValue(balanced));
  return cli.Finish();
}
