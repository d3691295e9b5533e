// Ablation for Section 3.1.3: "Removing unnecessary atomic operations in
// UMAs."
//
// Because the dedicated core serializes every request, the server heap's
// lock (one atomic RMW at the beginning and end of each malloc/free) can be
// removed. This bench runs NextGen-Malloc with the lock kept vs removed and
// reports the server-side cost per operation, plus the same comparison for
// the inline (non-offloaded) single-threaded configuration.
#include "bench/bench_common.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

struct AtomicsResult {
  std::string config;
  std::uint64_t wall = 0;
  std::uint64_t server_cycles = 0;
  std::uint64_t server_atomics = 0;
  std::uint64_t ops = 0;
};

AtomicsResult RunCase(BenchCli& cli, bool offload, bool remove_atomics) {
  NgxConfig cfg;
  cfg.offload = offload;
  cfg.remove_atomics = remove_atomics;
  XalancConfig wl_cfg = XalancBenchConfig();
  wl_cfg.documents = 6;
  // The paper-prototype point (offloaded, atomics removed) is the traced run.
  const XalancRun run = RunXalanc(MachineConfig::ScaledWorkstation(2),
                                  cli.TelemetrySetup(/*allow_trace=*/offload && remove_atomics),
                                  NextGen{cfg}, wl_cfg);
  const RunResult& r = run.result;
  if (run.system.fabric) {
    run.system.fabric->DrainAll();
  }
  cli.Capture(*run.machine);
  AtomicsResult out;
  out.config = std::string(offload ? "offloaded" : "inline") +
               (remove_atomics ? ", atomics removed" : ", atomics kept");
  out.wall = r.wall_cycles;
  out.server_cycles = offload ? run.machine->core(1).now() : 0;
  out.server_atomics = offload ? r.server.atomic_rmws : r.app.atomic_rmws;
  out.ops = r.alloc_stats.mallocs + r.alloc_stats.frees;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_atomics", argc, argv);
  std::cout << "=== Ablation (3.1.3): removing atomics in the offloaded allocator ===\n\n";

  const std::vector<AtomicsResult> results = {
      RunCase(cli, true, true),
      RunCase(cli, true, false),
      RunCase(cli, false, true),
      RunCase(cli, false, false),
  };

  TextTable t({"configuration", "app wall cycles", "server cycles", "heap atomic RMWs",
               "atomics/op"});
  for (const AtomicsResult& r : results) {
    t.AddRow({r.config, FormatSci(static_cast<double>(r.wall)),
              r.server_cycles ? FormatSci(static_cast<double>(r.server_cycles)) : "-",
              FormatInt(r.server_atomics),
              FormatFixed(static_cast<double>(r.server_atomics) / r.ops, 2)});
  }
  std::cout << t.ToString() << "\n";

  const double kept = static_cast<double>(results[1].server_cycles);
  const double removed = static_cast<double>(results[0].server_cycles);
  std::cout << "server-side saving from removing lock atomics: "
            << FormatFixed(100.0 * (kept / removed - 1.0), 2) << "%\n"
            << "(the question 3.1.3 leaves open: whether this saving outweighs the\n"
            << "handshake atomics NextGen-Malloc adds -- compare with the inline rows)\n";

  JsonValue rows = JsonValue::Array();
  for (const AtomicsResult& r : results) {
    JsonValue o = JsonValue::Object();
    o.Set("config", JsonValue(r.config));
    o.Set("wall_cycles", JsonValue(r.wall));
    o.Set("server_cycles", JsonValue(r.server_cycles));
    o.Set("heap_atomic_rmws", JsonValue(r.server_atomics));
    o.Set("ops", JsonValue(r.ops));
    rows.Push(o);
  }
  cli.Set("configs", rows);
  cli.Metric("server_saving_pct", 100.0 * (kept / removed - 1.0));
  return cli.Finish();
}
