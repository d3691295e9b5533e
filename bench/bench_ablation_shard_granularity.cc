// Ablation for Section 3.1.1's provisioning-granularity question: "one
// allocator core per application, per several applications, or per thread
// group?"
//
// The offload fabric makes the answer a sweep: shards x clients, with each
// shard owning a dedicated server core and a disjoint heap partition. As the
// client count grows, a single server core serializes everyone (visible as
// server_busy_waits and in the client-observed sync round-trip tail); adding
// shards splits the queueing. The bench reports wall cycles, per-shard
// queueing and p99 sync latency (from the telemetry layer), and the app-side
// LLC / dTLB MPKI so the cost of extra cores can be weighed against the
// contention relief.
#include "bench/bench_common.h"


using namespace ngx;
using namespace ngx::bench;

namespace {

struct ShardPoint {
  std::uint64_t busy_waits = 0;
  HistogramSummary sync_latency;
};

struct SweepPoint {
  int clients = 0;
  int shards = 0;
  std::uint64_t wall = 0;
  std::uint64_t total_busy_waits = 0;
  std::uint64_t max_shard_busy_waits = 0;
  std::uint64_t max_shard_sync_p99 = 0;
  std::vector<ShardPoint> per_shard;
  double llc_load_mpki = 0;
  double dtlb_load_mpki = 0;
};

SweepPoint RunCase(BenchCli& cli, int clients, int shards) {
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = shards;
  cfg.routing = RoutingKind::kStaticByClient;
  std::vector<int> server_cores;
  for (int s = 0; s < shards; ++s) {
    server_cores.push_back(clients + s);
  }
  // The paper's xalanc-like workload, scaled down and allocation-dense:
  // each thread parses its own documents, so frees return to the shard the
  // thread mallocs from and ride its own drain path. The sync-latency tail
  // is then the round-robin queueing behind the shared server core.
  XalancConfig wl_cfg;
  wl_cfg.documents = 3;
  wl_cfg.nodes_per_doc = 2000;
  wl_cfg.transform_passes = 2;
  wl_cfg.compute_per_node = 300;
  // Telemetry is always on here: the per-shard sync-latency digest is part
  // of the bench's output. The 8-client/4-shard point is the traced run.
  const XalancRun run = RunXalanc(MachineConfig::Default(clients + shards),
                                  cli.TelemetrySetup(/*allow_trace=*/clients == 8 && shards == 4),
                                  NextGen{cfg, server_cores}, wl_cfg, FirstCores(clients));
  const RunResult& r = run.result;
  run.system.fabric->DrainAll();
  cli.Capture(*run.machine);

  SweepPoint out;
  out.clients = clients;
  out.shards = shards;
  out.wall = r.wall_cycles;
  out.total_busy_waits = run.system.fabric->TotalStats().server_busy_waits;
  for (int s = 0; s < shards; ++s) {
    ShardPoint sp;
    sp.busy_waits = run.system.fabric->shard_stats(s).server_busy_waits;
    sp.sync_latency = r.shard_sync_latency[static_cast<std::size_t>(s)];
    out.max_shard_busy_waits = std::max(out.max_shard_busy_waits, sp.busy_waits);
    out.max_shard_sync_p99 = std::max(out.max_shard_sync_p99, sp.sync_latency.p99);
    out.per_shard.push_back(sp);
  }
  out.llc_load_mpki = r.app.LlcLoadMpki();
  out.dtlb_load_mpki = r.app.DtlbLoadMpki();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_shard_granularity", argc, argv);
  std::cout << "=== Ablation (3.1.1): allocator-core provisioning granularity ===\n\n";

  TextTable t({"clients", "shards", "wall cycles", "busy waits (total)",
               "busy waits (max shard)", "sync p99 (max shard)", "LLC-load-MPKI",
               "dTLB-load-MPKI"});
  std::vector<SweepPoint> points;
  for (const int clients : {1, 2, 4, 8}) {
    for (const int shards : {1, 2, 4}) {
      if (shards > clients) {
        continue;  // more rooms than tenants: nothing left to split
      }
      const SweepPoint p = RunCase(cli, clients, shards);
      points.push_back(p);
      t.AddRow({FormatInt(p.clients), FormatInt(p.shards),
                FormatSci(static_cast<double>(p.wall)), FormatInt(p.total_busy_waits),
                FormatInt(p.max_shard_busy_waits), FormatInt(p.max_shard_sync_p99),
                FormatFixed(p.llc_load_mpki, 3), FormatFixed(p.dtlb_load_mpki, 3)});
      std::cerr << "[done] clients=" << clients << " shards=" << shards << "\n";
    }
  }
  std::cout << t.ToString() << "\n";

  // The headline: at 8 clients, what does each extra shard buy? Both the
  // server-side queueing and the client-observed round-trip tail should
  // shrink as the client set is split across more allocator cores.
  std::cout << "--- 8 clients: queueing relief per shard ---\n";
  TextTable relief({"shards", "busiest-shard waits", "busiest-shard sync p99", "wall cycles"});
  std::vector<std::uint64_t> p99_at_8;
  for (const SweepPoint& p : points) {
    if (p.clients != 8) {
      continue;
    }
    relief.AddRow({FormatInt(p.shards), FormatInt(p.max_shard_busy_waits),
                   FormatInt(p.max_shard_sync_p99),
                   FormatSci(static_cast<double>(p.wall))});
    p99_at_8.push_back(p.max_shard_sync_p99);
  }
  std::cout << relief.ToString() << "\n";
  bool monotonic = true;
  for (std::size_t i = 1; i < p99_at_8.size(); ++i) {
    monotonic = monotonic && p99_at_8[i] < p99_at_8[i - 1];
  }
  std::cout << "busiest-shard sync p99 falls monotonically 1 -> 2 -> 4 shards: "
            << (monotonic ? "yes" : "NO") << "\n";
  std::cout << "expectation: the busiest shard's queueing shrinks as the client set is\n"
            << "split across more allocator cores -- one room per application is the\n"
            << "wrong granularity once several threads share it.\n";

  JsonValue sweep = JsonValue::Array();
  for (const SweepPoint& p : points) {
    JsonValue o = JsonValue::Object();
    o.Set("clients", JsonValue(p.clients));
    o.Set("shards", JsonValue(p.shards));
    o.Set("wall_cycles", JsonValue(p.wall));
    o.Set("busy_waits_total", JsonValue(p.total_busy_waits));
    o.Set("busy_waits_max_shard", JsonValue(p.max_shard_busy_waits));
    o.Set("sync_p99_max_shard", JsonValue(p.max_shard_sync_p99));
    o.Set("llc_load_mpki", JsonValue(p.llc_load_mpki));
    o.Set("dtlb_load_mpki", JsonValue(p.dtlb_load_mpki));
    JsonValue shards_json = JsonValue::Array();
    for (const ShardPoint& sp : p.per_shard) {
      JsonValue so = JsonValue::Object();
      so.Set("busy_waits", JsonValue(sp.busy_waits));
      so.Set("sync_latency", SummaryJson(sp.sync_latency));
      shards_json.Push(so);
    }
    o.Set("per_shard", shards_json);
    sweep.Push(o);
  }
  cli.Set("sweep", sweep);
  cli.Metric("p99_monotonic_at_8_clients", JsonValue(monotonic));
  return cli.Finish();
}
