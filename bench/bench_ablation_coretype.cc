// Ablation for Section 3.2: "Type of Core to Offload to."
//
// Runs NextGen-Malloc with the dedicated allocator core being (a) another
// big out-of-order core, (b) a small in-order core, and (c) a small in-order
// *near-memory* core (tiny cache, no L2, low DRAM latency), and reports the
// application-visible impact -- the paper's question of whether a "small
// room" suffices for the allocator.
#include "bench/bench_common.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

struct CoreTypeResult {
  std::string core_type;
  std::uint64_t wall = 0;
  std::uint64_t server_cycles = 0;
  double server_ipc = 0;
  std::uint64_t server_llc_misses = 0;
};

CoreTypeResult RunCase(BenchCli& cli, const std::string& label,
                       const CoreConfig& server_core_cfg, bool trace) {
  MachineConfig mc = MachineConfig::ScaledWorkstation(2);
  mc.cores[1] = server_core_cfg;
  XalancConfig wl_cfg = XalancBenchConfig();
  wl_cfg.documents = 6;
  const XalancRun run = RunXalanc(mc, cli.TelemetrySetup(trace), NextGen{NgxConfig{}}, wl_cfg);
  const RunResult& r = run.result;
  run.system.fabric->DrainAll();
  cli.Capture(*run.machine);
  CoreTypeResult out;
  out.core_type = label;
  out.wall = r.wall_cycles;
  out.server_cycles = run.machine->core(1).now();
  out.server_ipc = r.server.Ipc();
  out.server_llc_misses = r.server.llc_load_misses + r.server.llc_store_misses;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_coretype", argc, argv);
  std::cout << "=== Ablation (3.2): what kind of room does the allocator need? ===\n\n";

  CoreConfig big;  // same as the app core (ScaledWorkstation default)
  big.cpi = 0.3;
  big.load_overlap = 0.5;
  big.l1d.size_bytes = 16 * 1024;
  big.l1d.ways = 4;
  big.l2.size_bytes = 128 * 1024;
  big.tlb.l1_small_entries = 32;
  big.tlb.l1_huge_entries = 16;
  big.tlb.l2_entries = 256;

  CoreConfig inorder = big;
  inorder.type = CoreType::kInOrder;
  inorder.cpi = 1.0;
  inorder.load_overlap = 0.0;
  inorder.store_overlap = 0.0;

  const CoreConfig nearmem = CoreConfig::NearMemory();

  const std::vector<CoreTypeResult> results = {
      RunCase(cli, "big out-of-order (another room like ours)", big, /*trace=*/false),
      RunCase(cli, "small in-order (a child's room)", inorder, /*trace=*/true),
      RunCase(cli, "near-memory in-order (a room by the pantry)", nearmem, /*trace=*/false),
  };

  TextTable t({"allocator core", "app wall cycles", "server cycles", "server IPC",
               "server LLC misses"});
  for (const CoreTypeResult& r : results) {
    t.AddRow({r.core_type, FormatSci(static_cast<double>(r.wall)),
              FormatSci(static_cast<double>(r.server_cycles)), FormatFixed(r.server_ipc, 2),
              FormatSci(static_cast<double>(r.server_llc_misses))});
  }
  std::cout << t.ToString() << "\n";

  const double big_wall = static_cast<double>(results[0].wall);
  std::cout << "app slowdown with small in-order server: "
            << FormatFixed(100.0 * (static_cast<double>(results[1].wall) / big_wall - 1.0), 2)
            << "%\n"
            << "app slowdown with near-memory server:    "
            << FormatFixed(100.0 * (static_cast<double>(results[2].wall) / big_wall - 1.0), 2)
            << "%\n"
            << "(3.2's hypothesis: a single-issue in-order integer core is adequate,\n"
            << "and a near-memory core needs only a small cache for metadata)\n";

  JsonValue rows = JsonValue::Array();
  for (const CoreTypeResult& r : results) {
    JsonValue o = JsonValue::Object();
    o.Set("core_type", JsonValue(r.core_type));
    o.Set("wall_cycles", JsonValue(r.wall));
    o.Set("server_cycles", JsonValue(r.server_cycles));
    o.Set("server_ipc", JsonValue(r.server_ipc));
    o.Set("server_llc_misses", JsonValue(r.server_llc_misses));
    rows.Push(o);
  }
  cli.Set("core_types", rows);
  cli.Metric("inorder_slowdown_pct",
             100.0 * (static_cast<double>(results[1].wall) / big_wall - 1.0));
  cli.Metric("nearmem_slowdown_pct",
             100.0 * (static_cast<double>(results[2].wall) / big_wall - 1.0));
  return cli.Finish();
}
