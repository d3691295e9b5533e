// Ablation for Section 3.3.2: predictive preallocation.
//
// "More intelligence can be programmed to observe allocation requests and
// utilize such information to predictively preallocate memory to reduce
// allocation latencies."
//
// The server watches per-client size-class runs; on a hit streak it answers
// a malloc with a batch, prefetching future blocks into the client's local
// stash so subsequent mallocs complete without a round trip.
#include "bench/bench_common.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

struct PredResult {
  std::string config;
  std::uint64_t wall = 0;
  std::uint64_t stash_hits = 0;
  std::uint64_t sync_mallocs = 0;
};

PredResult RunCase(BenchCli& cli, bool prediction, std::uint32_t max_batch) {
  NgxConfig cfg;
  cfg.prediction = prediction;
  cfg.max_predict_batch = max_batch;
  XalancConfig wl_cfg = XalancBenchConfig();
  wl_cfg.documents = 6;
  const XalancRun run = RunXalanc(MachineConfig::ScaledWorkstation(2),
                                  cli.TelemetrySetup(/*allow_trace=*/prediction && max_batch == 32),
                                  NextGen{cfg}, wl_cfg);
  const RunResult& r = run.result;
  run.system.fabric->DrainAll();
  cli.Capture(*run.machine);
  PredResult out;
  out.config = prediction ? "prediction, batch<=" + std::to_string(max_batch) : "no prediction";
  out.wall = r.wall_cycles;
  out.stash_hits = run.system.allocator->stash_hits();
  out.sync_mallocs = run.system.allocator->sync_mallocs();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_prediction", argc, argv);
  std::cout << "=== Ablation (3.3.2): predictive preallocation ===\n\n";

  const std::vector<PredResult> results = {
      RunCase(cli, false, 0),
      RunCase(cli, true, 4),
      RunCase(cli, true, 8),
      RunCase(cli, true, 16),
      RunCase(cli, true, 32),
  };

  TextTable t({"configuration", "app wall cycles", "round trips", "stash hits", "hit rate"});
  for (const PredResult& r : results) {
    const double total = static_cast<double>(r.stash_hits + r.sync_mallocs);
    t.AddRow({r.config, FormatSci(static_cast<double>(r.wall)), FormatInt(r.sync_mallocs),
              FormatInt(r.stash_hits),
              total > 0 ? FormatFixed(100.0 * r.stash_hits / total, 1) + "%" : "-"});
  }
  std::cout << t.ToString() << "\n";

  const double base = static_cast<double>(results[0].wall);
  const double best = static_cast<double>(results.back().wall);
  std::cout << "malloc round trips removed by prediction: "
            << FormatFixed(100.0 * (1.0 - static_cast<double>(results.back().sync_mallocs) /
                                              results[0].sync_mallocs),
                           1)
            << "%\napp speedup from prediction: " << FormatFixed(100.0 * (base / best - 1.0), 2)
            << "%\n(echoes MMT [31]: offloading pays off once preallocation hides the\n"
            << "round-trip latency of fine-grained requests)\n";

  JsonValue rows = JsonValue::Array();
  for (const PredResult& r : results) {
    JsonValue o = JsonValue::Object();
    o.Set("config", JsonValue(r.config));
    o.Set("wall_cycles", JsonValue(r.wall));
    o.Set("stash_hits", JsonValue(r.stash_hits));
    o.Set("sync_mallocs", JsonValue(r.sync_mallocs));
    rows.Push(o);
  }
  cli.Set("configs", rows);
  cli.Metric("round_trips_removed_pct",
             100.0 * (1.0 - static_cast<double>(results.back().sync_mallocs) /
                                results[0].sync_mallocs));
  cli.Metric("prediction_speedup_pct", 100.0 * (base / best - 1.0));
  return cli.Finish();
}
