// Hardware-prefetcher sensitivity ablation.
//
// The paper's Table-1 gaps come partly from *spatial* locality: dense
// size-class packing is prefetcher-friendly, a fragmented boundary-tag heap
// is not. This bench re-runs the Table-1 comparison with the simulator's
// next-line prefetcher on, checking that the PTMalloc2-vs-modern gap
// persists (it narrows but does not vanish -- pollution and TLB effects are
// not prefetchable).
#include "bench/bench_common.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

struct Row {
  std::string allocator;
  std::uint64_t cycles_off = 0;
  std::uint64_t cycles_on = 0;
  std::uint64_t llc_off = 0;
  std::uint64_t llc_on = 0;
};

Row RunBoth(BenchCli& cli, const std::string& name) {
  Row row;
  row.allocator = name;
  for (const bool prefetch : {false, true}) {
    MachineConfig mc = MachineConfig::ScaledWorkstation(2);
    mc.next_line_prefetch = prefetch;
    XalancConfig wl_cfg = XalancBenchConfig();
    wl_cfg.documents = 6;
    const XalancRun run = RunXalanc(
        mc, cli.TelemetrySetup(/*allow_trace=*/name == "ptmalloc2" && prefetch), name, wl_cfg);
    const RunResult& r = run.result;
    cli.Capture(*run.machine);
    (prefetch ? row.cycles_on : row.cycles_off) = r.wall_cycles;
    (prefetch ? row.llc_on : row.llc_off) = r.app.llc_load_misses;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_prefetch", argc, argv);
  std::cout << "=== Ablation: next-line prefetcher vs the Table-1 gap ===\n\n";

  std::vector<Row> rows;
  for (const std::string& name : BaselineAllocatorNames()) {
    rows.push_back(RunBoth(cli, name));
    std::cerr << "[done] " << name << "\n";
  }

  TextTable t({"allocator", "cycles (no pf)", "cycles (pf)", "LLC-ld-miss (no pf)",
               "LLC-ld-miss (pf)"});
  for (const Row& r : rows) {
    t.AddRow({r.allocator, FormatSci(static_cast<double>(r.cycles_off)),
              FormatSci(static_cast<double>(r.cycles_on)),
              FormatSci(static_cast<double>(r.llc_off)),
              FormatSci(static_cast<double>(r.llc_on))});
  }
  std::cout << t.ToString() << "\n";

  const double gap_off =
      static_cast<double>(rows[0].cycles_off) / static_cast<double>(rows[2].cycles_off);
  const double gap_on =
      static_cast<double>(rows[0].cycles_on) / static_cast<double>(rows[2].cycles_on);
  std::cout << "PTMalloc2-vs-TCMalloc cycle gap: " << FormatRatio(gap_off)
            << " without prefetch, " << FormatRatio(gap_on) << " with prefetch\n"
            << "(the gap survives prefetching: TLB walks and pointer-chasing metadata\n"
            << "misses are not next-line-predictable)\n";

  JsonValue out = JsonValue::Array();
  for (const Row& r : rows) {
    JsonValue o = JsonValue::Object();
    o.Set("allocator", JsonValue(r.allocator));
    o.Set("cycles_no_prefetch", JsonValue(r.cycles_off));
    o.Set("cycles_prefetch", JsonValue(r.cycles_on));
    o.Set("llc_load_misses_no_prefetch", JsonValue(r.llc_off));
    o.Set("llc_load_misses_prefetch", JsonValue(r.llc_on));
    out.Push(o);
  }
  cli.Set("allocators", out);
  cli.Metric("ptmalloc2_vs_tcmalloc_gap_no_prefetch", gap_off);
  cli.Metric("ptmalloc2_vs_tcmalloc_gap_prefetch", gap_on);
  return cli.Finish();
}
