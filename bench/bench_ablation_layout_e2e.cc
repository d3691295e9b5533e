// End-to-end ablation for Section 3.1.2: which metadata layout should the
// *offloaded* allocator use?
//
// Figure 2's trade-off is measured at heap level by bench_fig2_layout; here
// the same two layouts run inside the full offloaded system. The paper's
// expectation: "segregated layout is more suitable for offloading memory
// allocators", because (a) the metadata address space separates cleanly and
// (b) the aggregated layout's one benefit -- warming the block's line for
// the user -- becomes a *penalty* when allocator and user run on different
// cores (the server's intrusive pop pulls the block line into the SERVER's
// cache, and the client must then yank it back).
#include "bench/bench_common.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

struct LayoutE2E {
  std::string layout;
  std::uint64_t wall = 0;
  std::uint64_t app_llc_load = 0;
  std::uint64_t app_hitm = 0;
  std::uint64_t server_llc_load = 0;
};

LayoutE2E RunCase(BenchCli& cli, bool segregated) {
  NgxConfig cfg;
  cfg.heap_kind = segregated ? HeapKind::kSegment : HeapKind::kAggregated;
  XalancConfig wl_cfg = XalancBenchConfig();
  wl_cfg.documents = 6;
  const XalancRun run =
      RunXalanc(MachineConfig::ScaledWorkstation(2),
                cli.TelemetrySetup(/*allow_trace=*/segregated), NextGen{cfg}, wl_cfg);
  const RunResult& r = run.result;
  run.system.fabric->DrainAll();
  cli.Capture(*run.machine);
  LayoutE2E out;
  out.layout =
      segregated ? "segregated (segment + slab side tables)" : "aggregated (intrusive links)";
  out.wall = r.wall_cycles;
  out.app_llc_load = r.app.llc_load_misses;
  out.app_hitm = r.app.remote_hitm;
  out.server_llc_load = r.server.llc_load_misses;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_layout_e2e", argc, argv);
  std::cout << "=== Ablation (3.1.2): metadata layout inside the offloaded allocator ===\n\n";

  const LayoutE2E seg = RunCase(cli, true);
  const LayoutE2E agg = RunCase(cli, false);

  TextTable t({"server-heap layout", "app wall cycles", "app LLC-load-misses",
               "app remote-HITM", "server LLC-load-misses"});
  for (const LayoutE2E* r : {&seg, &agg}) {
    t.AddRow({r->layout, FormatSci(static_cast<double>(r->wall)),
              FormatSci(static_cast<double>(r->app_llc_load)),
              FormatSci(static_cast<double>(r->app_hitm)),
              FormatSci(static_cast<double>(r->server_llc_load))});
  }
  std::cout << t.ToString() << "\n";
  std::cout << "segregated advantage end-to-end: "
            << FormatFixed(100.0 * (static_cast<double>(agg.wall) / seg.wall - 1.0), 2)
            << "%\n"
            << "(3.1.2's conclusion: with the server owning the heap, intrusive links\n"
            << "make every block a line the two cores fight over; side tables keep\n"
            << "allocator traffic entirely server-local)\n";

  JsonValue rows = JsonValue::Array();
  for (const LayoutE2E* r : {&seg, &agg}) {
    JsonValue o = JsonValue::Object();
    o.Set("layout", JsonValue(r->layout));
    o.Set("wall_cycles", JsonValue(r->wall));
    o.Set("app_llc_load_misses", JsonValue(r->app_llc_load));
    o.Set("app_remote_hitm", JsonValue(r->app_hitm));
    o.Set("server_llc_load_misses", JsonValue(r->server_llc_load));
    rows.Push(o);
  }
  cli.Set("layouts", rows);
  cli.Metric("segregated_advantage_pct",
             100.0 * (static_cast<double>(agg.wall) / seg.wall - 1.0));
  return cli.Finish();
}
