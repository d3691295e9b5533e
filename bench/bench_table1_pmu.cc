// Reproduces Table 1: processor PMU counters for the xalancbmk-like workload
// under the four baseline allocators (PTMalloc2, Jemalloc, TCMalloc,
// Mimalloc).
//
// Paper shapes to match (not absolute values -- the substrate is a scaled
// simulator):
//   * cycles: PTMalloc2 ~1.7x the modern allocators
//   * instructions: roughly equal across allocators
//   * LLC-load-misses: PTMalloc2 ~4x the best
//   * dTLB-load-misses: PTMalloc2 >10x the modern allocators
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace ngx;
  using namespace ngx::bench;

  BenchCli cli("table1_pmu", argc, argv);
  std::cout << "=== Table 1: PMU counters for xalanc-like under four allocators ===\n\n";

  const std::vector<std::string> names = BaselineAllocatorNames();
  std::vector<RunResult> runs;
  for (const std::string& name : names) {
    const XalancRun run = RunXalanc(MachineConfig::ScaledWorkstation(2), cli.TelemetrySetup(),
                                    name, XalancBenchConfig());
    cli.Capture(*run.machine);
    runs.push_back(run.result);
    std::cerr << "[done] " << name << "\n";
  }

  TextTable abs({"counter", "PTMalloc2", "JeMalloc", "TCMalloc", "Mimalloc"});
  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (const RunResult& r : runs) {
      cells.push_back(FormatSci(static_cast<double>(getter(r.app))));
    }
    abs.AddRow(std::move(cells));
  };
  row("cycles", [](const PmuCounters& p) { return p.cycles; });
  row("instructions", [](const PmuCounters& p) { return p.instructions; });
  row("LLC-load-misses", [](const PmuCounters& p) { return p.llc_load_misses; });
  row("LLC-store-misses", [](const PmuCounters& p) { return p.llc_store_misses; });
  row("dTLB-load-misses", [](const PmuCounters& p) { return p.dtlb_load_misses; });
  row("dTLB-store-misses", [](const PmuCounters& p) { return p.dtlb_store_misses; });
  std::cout << abs.ToString() << "\n";

  TextTable mpki({"counter", "PTMalloc2", "JeMalloc", "TCMalloc", "Mimalloc"});
  auto mrow = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (const RunResult& r : runs) {
      cells.push_back(FormatFixed(getter(r.app), 3));
    }
    mpki.AddRow(std::move(cells));
  };
  mrow("LLC-load-MPKI", [](const PmuCounters& p) { return p.LlcLoadMpki(); });
  mrow("LLC-store-MPKI", [](const PmuCounters& p) { return p.LlcStoreMpki(); });
  mrow("dTLB-load-MPKI", [](const PmuCounters& p) { return p.DtlbLoadMpki(); });
  mrow("dTLB-store-MPKI", [](const PmuCounters& p) { return p.DtlbStoreMpki(); });
  std::cout << mpki.ToString() << "\n";

  // Shape summary vs the paper.
  const PmuCounters& pt = runs[0].app;
  double best_cycles = 1e300;
  double best_llc = 1e300;
  double best_dtlb = 1e300;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    best_cycles = std::min(best_cycles, static_cast<double>(runs[i].app.cycles));
    best_llc = std::min(best_llc, static_cast<double>(runs[i].app.llc_load_misses));
    best_dtlb = std::min(best_dtlb, static_cast<double>(runs[i].app.dtlb_load_misses));
  }
  TextTable shape({"shape metric", "paper", "measured"});
  shape.AddRow({"PTMalloc2 cycles / best modern", "~1.7x",
                FormatRatio(pt.cycles / best_cycles)});
  shape.AddRow({"PTMalloc2 LLC-load-misses / best", "~4x",
                FormatRatio(pt.llc_load_misses / best_llc)});
  shape.AddRow({"PTMalloc2 dTLB-load-misses / best", ">10x",
                FormatRatio(pt.dtlb_load_misses / best_dtlb)});
  shape.AddRow({"time in malloc/free (modern)", "~2%",
                FormatFixed(100.0 * runs[3].MallocTimeShare(), 1) + "%"});
  std::cout << shape.ToString();

  JsonValue counters = JsonValue::Object();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    counters.Set(names[i], PmuJson(runs[i].app));
  }
  cli.Set("app_core_counters", counters);
  cli.Metric("ptmalloc2_cycles_vs_best_modern", pt.cycles / best_cycles);
  cli.Metric("ptmalloc2_llc_load_misses_vs_best", pt.llc_load_misses / best_llc);
  cli.Metric("ptmalloc2_dtlb_load_misses_vs_best", pt.dtlb_load_misses / best_dtlb);
  cli.Metric("malloc_time_share_mimalloc", runs[3].MallocTimeShare());
  return cli.Finish();
}
