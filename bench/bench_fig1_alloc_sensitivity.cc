// Reproduces Figure 1: execution-time sensitivity of the xalancbmk-like
// workload to the memory allocator -- variations up to 72% although only ~2%
// of time is spent in malloc/free.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace ngx;
  using namespace ngx::bench;

  BenchCli cli("fig1_alloc_sensitivity", argc, argv);
  std::cout << "=== Figure 1: execution time sensitivity to memory allocation ===\n\n";

  const std::vector<std::string> names = BaselineAllocatorNames();
  std::vector<RunResult> runs;
  for (const std::string& name : names) {
    const XalancRun run = RunXalanc(MachineConfig::ScaledWorkstation(2), cli.TelemetrySetup(),
                                    name, XalancBenchConfig());
    cli.Capture(*run.machine);
    runs.push_back(run.result);
    std::cerr << "[done] " << name << "\n";
  }

  double best = 1e300;
  for (const RunResult& r : runs) {
    best = std::min(best, static_cast<double>(r.wall_cycles));
  }

  TextTable t({"allocator", "exec cycles", "normalized (best=1)", "vs PTMalloc2",
               "time in malloc/free"});
  const double pt_cycles = static_cast<double>(runs[0].wall_cycles);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const double c = static_cast<double>(runs[i].wall_cycles);
    t.AddRow({names[i], FormatSci(c), FormatRatio(c / best), FormatRatio(pt_cycles / c),
              FormatFixed(100.0 * runs[i].MallocTimeShare(), 1) + "%"});
  }
  std::cout << t.ToString() << "\n";
  std::cout << "paper: best allocator improves over PTMalloc2 by up to 1.72x;\n"
            << "       only ~2% of execution time is inside malloc/free.\n"
            << "measured best-vs-PTMalloc2: " << FormatRatio(pt_cycles / best) << "\n";

  JsonValue rows = JsonValue::Array();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    JsonValue o = JsonValue::Object();
    o.Set("allocator", JsonValue(names[i]));
    o.Set("wall_cycles", JsonValue(runs[i].wall_cycles));
    o.Set("malloc_time_share", JsonValue(runs[i].MallocTimeShare()));
    rows.Push(o);
  }
  cli.Set("allocators", rows);
  cli.Metric("best_vs_ptmalloc2", pt_cycles / best);
  return cli.Finish();
}
