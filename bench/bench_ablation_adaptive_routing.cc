// Ablation for adaptive traffic-matrix routing + the elastic allocator-core
// fleet (DESIGN.md §14): at a FIXED shard count, what does feedback-driven
// placement buy over the fair control, static_by_client (client % shards),
// and how much allocator-core capacity does the break-even controller hand
// back when traffic ebbs?
//
// Two mixes. The diurnal mix's skew shifts twice: in phase 1 tenants 0-1
// churn hot while 2-3 tick over; in phase 2 the skew flips to tenant 2; in
// phase 3 every tenant goes cold (the overnight valley). The static spread
// already gives each tenant its own shard there, so the adaptive packer can
// only tie it; what the mix shows is the epoch controller parking shards
// whose op rate falls below break-even -- during the valley the fleet shrinks
// toward one active shard and the parked cores' cycles are the measured
// §3.1.1 dividend.
//
// The skewed span-economy mix is where placement pays: bench_ablation_
// rebalance's phases with the full span economy on (perfbench's
// skew-span-economy configuration). Tenant 0 bursts 36-60 KiB buffers past
// its shard's slice three times while the others churn small blocks; packing
// the clients by observed traffic cuts the client malloc tail and the bytes
// the shards map, against the static spread.
#include "bench/bench_common.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

constexpr int kClients = 4;
constexpr int kShards = 4;

// Hot and cold phases are tuned to near-equal wall time, so the skew flips
// line up across tenants in virtual time. Each tenant churns its OWN size
// band (disjoint size classes): pinned routing keeps a home shard's slabs
// warm for exactly its tenants' classes, while spreading makes every shard
// carry -- and carve -- every tenant's classes. Cold tenants mostly compute.
// Each phase drains newest first, one free per step like every call, so the
// fleet's epoch ticks ride the drain; OOM stops the thread and leaves its
// story in partition_oom_failures.
Churn DiurnalMix() {
  struct Band {
    std::uint64_t min_size;
    std::uint64_t max_size;
  };
  const Band bands[kClients] = {{64, 128}, {512, 768}, {2048, 3072}, {192, 256}};
  auto hot = [&](int t) {
    return TenantChurn(160, 1200, bands[t].min_size, bands[t].max_size, /*work=*/30);
  };
  auto cold = [&](int t) {
    return TenantChurn(8, 120, bands[t].min_size, bands[t].max_size, /*work=*/2000);
  };
  return Churn(
      {
          {hot(0), hot(0), cold(0)},    // tenant 0: busy all day, idles overnight
          {hot(1), cold(1), cold(1)},   // tenant 1: morning-heavy
          {cold(2), hot(2), cold(2)},   // tenant 2: evening-heavy (the skew flip)
          {cold(3), cold(3), cold(3)},  // tenant 3: background tick-over
      },
      ChurnDrain::kNewestFirst);
}

// Every phase of the skewed span-economy mix churns 400 live blocks:
// bench_ablation_rebalance's burst and small phases. Tenant 0 runs burst then
// small, three times; the others run small three times.
Churn SkewedSpanMix() {
  const ChurnConfig burst = TenantChurn(400, 300, 36 * 1024, 60 * 1024);
  const ChurnConfig small = TenantChurn(400, 1500, 64, 256);
  return Churn({{burst, small, burst, small, burst, small}, {small, small, small}},
               ChurnDrain::kNewestFirst);
}

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

enum class Variant { kStaticByClient, kAdaptive };

std::string VariantName(Variant v) {
  return v == Variant::kAdaptive ? "adaptive" : "static_by_client";
}

// The adaptive side of both mixes: the packer, fed every 60,000 cycles.
void MakeAdaptive(NgxConfig* cfg) {
  cfg->routing = RoutingKind::kAdaptive;
  cfg->adaptive_routing = true;
  cfg->epoch_cycles = 60000;
  // Break-even: a shard below ~100 fabric ops per epoch is not earning its
  // core. On the diurnal mix a hot tenant clears this ~5x over, a lone cold
  // tenant does not, and a shard holding BOTH cold tenants sits just above
  // it -- so the hot fleet settles at {hot, hot, cold-pair} and the valley
  // shrinks further.
  cfg->park_threshold_ops = 100;
  // Own-ring backlog at the ring capacity wakes a parked shard; the steady
  // free sawtooth below that never does.
  cfg->wake_queue_depth = 64;
}

RunOptions FabricRun(std::uint64_t seed) {
  RunOptions opt;
  opt.cores = FirstCores(kClients);
  opt.seed = seed;
  for (int s = 0; s < kShards; ++s) {
    opt.server_cores.push_back(kClients + s);
  }
  return opt;
}

CasePoint RunCase(BenchCli& cli, Variant v) {
  Machine machine(MachineConfig::Default(kClients + kShards));
  cli.EnableTelemetry(machine, /*allow_trace=*/v == Variant::kAdaptive);
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = kShards;
  cfg.hugepage_spans = false;
  cfg.heap_window = 64ull << 20;  // 256 spans per shard
  cfg.span_donation = true;       // same span economy for every variant
  if (v == Variant::kAdaptive) {
    MakeAdaptive(&cfg);
  }
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*first_server_core=*/kClients);

  Churn workload = DiurnalMix();
  const RunResult r = RunWorkload(machine, *sys.allocator, workload, FabricRun(11));
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

struct SkewPoint {
  std::string variant;
  std::uint64_t wall = 0;
  std::uint64_t malloc_p99 = 0;    // exact, every client malloc
  std::uint64_t mapped_bytes = 0;  // span maps held by every shard at the end
  std::uint64_t client_moves = 0;
  std::uint64_t partition_ooms = 0;
  std::uint64_t mallocs = 0;
  std::uint64_t frees = 0;
};

// The skewed span-economy mix on perfbench's skew-span-economy configuration:
// segment heap, donation, watermarks 16/32 on a 50,000-cycle timer, packed
// hugepage spans and a 64-MiB window (256 spans a slice).
SkewPoint RunSkewCase(Variant v) {
  Machine machine(MachineConfig::Default(kClients + kShards));
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = kShards;
  cfg.heap_kind = HeapKind::kSegment;
  cfg.span_donation = true;
  cfg.span_low_mark = 16;
  cfg.span_high_mark = 32;
  cfg.watermark_timer_cycles = 50000;
  cfg.hugepage_spans = true;
  cfg.hugepage_packing = true;
  cfg.heap_window = 64ull << 20;
  if (v == Variant::kAdaptive) {
    MakeAdaptive(&cfg);
  }
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*first_server_core=*/kClients);
  MallocClock clock(*sys.allocator);

  Churn workload = SkewedSpanMix();
  const RunResult r = RunWorkload(machine, clock, workload, FabricRun(7));
  sys.fabric->DrainAll();

  SkewPoint out;
  out.variant = VariantName(v);
  out.wall = r.wall_cycles;
  out.malloc_p99 = clock.Quantile(99);
  out.mapped_bytes = sys.allocator->map_mapped_bytes();
  out.client_moves = sys.allocator->control()->client_moves();
  out.partition_ooms = sys.allocator->partition_oom_failures();
  out.mallocs = r.alloc_stats.mallocs;
  out.frees = r.alloc_stats.frees;
  return out;
}

std::string MiB(std::uint64_t bytes) {
  return FormatFixed(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_adaptive_routing", argc, argv);
  std::cout << "=== Ablation: adaptive routing + elastic allocator-core fleet ===\n\n";
  std::cout << kClients << " tenants / " << kShards
            << " shards, diurnal skew-shifting mix: tenants 0-1 hot in phase 1,\n"
            << "tenant 2 hot in phase 2, everyone cold in phase 3. Both variants run\n"
            << "the SAME shard count; only malloc placement (and, for adaptive, the\n"
            << "park/wake controller) differs. \"parked kcycles\" is allocator-core\n"
            << "capacity released while shards sat parked.\n\n";

  TextTable t({"routing", "wall cycles", "sync p99 (busiest shard)", "busy waits (busiest shard)",
               "epochs", "client moves", "parks", "min active", "parked kcycles", "OOMs"});
  std::vector<CasePoint> points;
  for (const Variant v : {Variant::kStaticByClient, Variant::kAdaptive}) {
    const CasePoint p = RunCase(cli, v);
    points.push_back(p);
    t.AddRow({p.variant, FormatSci(static_cast<double>(p.wall)), FormatInt(p.busiest_sync_p99),
              FormatInt(p.busiest_busy_waits), FormatInt(p.routing_epochs),
              FormatInt(p.client_moves), FormatInt(p.shards_parked),
              FormatInt(static_cast<std::uint64_t>(p.min_active_shards)),
              FormatInt(p.parked_core_cycles / 1000), FormatInt(p.partition_ooms)});
    std::cerr << "[done] diurnal routing=" << p.variant << "\n";
  }
  std::cout << t.ToString() << "\n";

  const CasePoint& stat = points[0];
  const CasePoint& adapt = points[1];
  std::cout << "busiest-shard sync p99: static_by_client -> " << stat.busiest_sync_p99
            << ", adaptive -> " << adapt.busiest_sync_p99 << "\n";
  std::cout << "fleet: " << adapt.routing_epochs << " epochs, " << adapt.client_moves
            << " client moves, " << adapt.shards_parked << " park transitions, fleet floor "
            << adapt.min_active_shards << "/" << kShards << " shards, "
            << adapt.parked_core_cycles << " parked core cycles\n\n";

  std::cout << "Skewed span-economy mix, seed 7: tenant 0 bursts 36-60 KiB buffers past\n"
            << "its 256-span slice and drops to small churn, three times; the others\n"
            << "churn small blocks. Donation, watermarks and packed hugepage spans on.\n"
            << "\"malloc p99\" is every client malloc, timed on the calling core.\n\n";
  TextTable st({"routing", "wall cycles", "malloc p99", "mapped MiB", "client moves", "OOMs"});
  std::vector<SkewPoint> skew;
  for (const Variant v : {Variant::kStaticByClient, Variant::kAdaptive}) {
    const SkewPoint p = RunSkewCase(v);
    skew.push_back(p);
    st.AddRow({p.variant, FormatSci(static_cast<double>(p.wall)), FormatInt(p.malloc_p99),
               MiB(p.mapped_bytes), FormatInt(p.client_moves), FormatInt(p.partition_ooms)});
    std::cerr << "[done] skew routing=" << p.variant << "\n";
  }
  std::cout << st.ToString() << "\n";
  const SkewPoint& skew_stat = skew[0];
  const SkewPoint& skew_adapt = skew[1];
  std::cout << "skewed mix: malloc p99 static_by_client -> " << skew_stat.malloc_p99
            << ", adaptive -> " << skew_adapt.malloc_p99 << "; mapped "
            << MiB(skew_stat.mapped_bytes) << " -> " << MiB(skew_adapt.mapped_bytes) << " MiB\n";
  std::cout << "expectation: on the skewed mix adaptive beats static_by_client on both\n"
            << "malloc p99 and mapped bytes; on the diurnal mix at least one shard parks\n"
            << "during the cold phase; every case finishes OOM-free with balanced books.\n";

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
  JsonValue skew_cases = JsonValue::Array();
  for (const SkewPoint& p : skew) {
    JsonValue o = JsonValue::Object();
    o.Set("routing", JsonValue(p.variant));
    o.Set("wall_cycles", JsonValue(p.wall));
    o.Set("malloc_p99", JsonValue(p.malloc_p99));
    o.Set("map_mapped_bytes", JsonValue(p.mapped_bytes));
    o.Set("client_moves", JsonValue(p.client_moves));
    o.Set("partition_oom_failures", JsonValue(p.partition_ooms));
    o.Set("mallocs", JsonValue(p.mallocs));
    o.Set("frees", JsonValue(p.frees));
    skew_cases.Push(o);
  }
  cli.Set("skew_cases", skew_cases);

  bool balanced = true;
  std::uint64_t ooms = 0;
  for (const CasePoint& p : points) {
    balanced = balanced && p.mallocs == p.frees;
    ooms += p.partition_ooms;
  }
  for (const SkewPoint& p : skew) {
    balanced = balanced && p.mallocs == p.frees;
    ooms += p.partition_ooms;
  }
  cli.Metric("busiest_sync_p99_static_by_client", stat.busiest_sync_p99);
  cli.Metric("busiest_sync_p99_adaptive", adapt.busiest_sync_p99);
  cli.Metric("skew_malloc_p99_static_by_client", skew_stat.malloc_p99);
  cli.Metric("skew_malloc_p99_adaptive", skew_adapt.malloc_p99);
  cli.Metric("skew_mapped_bytes_static_by_client", skew_stat.mapped_bytes);
  cli.Metric("skew_mapped_bytes_adaptive", skew_adapt.mapped_bytes);
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
