// Reproduces Section 4.1: the analytical break-even model for offloading,
// with the paper's exact inputs, then cross-validates the model's miss
// penalty against the simulator's own Table 1 runs.
//
// Paper numbers to reproduce exactly (the model is closed-form):
//   * 279,759,405 total malloc+free calls (138,401,260 + 141,394,145)
//   * 67-cycle atomic RMW -> ~75 billion overhead cycles
//   * 214-cycle average LLC/TLB miss penalty
//   * break-even: >= 1.25 misses removed per call
//   * feasible because Mimalloc issues ~7 loads/stores per malloc, ~10 per free
#include "bench/bench_common.h"
#include "src/core/analytical_model.h"

int main(int argc, char** argv) {
  using namespace ngx;
  using namespace ngx::bench;

  BenchCli cli("sec41_analytical", argc, argv);
  std::cout << "=== Section 4.1: analytical break-even model ===\n\n";

  const BreakEvenInputs in = BreakEvenInputs::PaperXalancbmk();
  const BreakEvenResult r = ComputeBreakEven(in);

  TextTable t({"quantity", "paper", "model"});
  t.AddRow({"malloc calls", "138,401,260", FormatInt(in.malloc_calls)});
  t.AddRow({"free calls", "141,394,145", FormatInt(in.free_calls)});
  t.AddRow({"total calls", "279,759,405", FormatInt(r.total_calls)});
  t.AddRow({"atomic RMW latency", "67 cycles", FormatFixed(in.atomic_cycles, 0) + " cycles"});
  t.AddRow({"sync overhead", "~75e9 cycles", FormatSci(r.overhead_cycles, 2) + " cycles"});
  t.AddRow({"avg miss penalty", "214 cycles", FormatFixed(in.miss_penalty_cycles, 0) + " cycles"});
  t.AddRow({"required miss reduction / call", ">= 1.25",
            FormatFixed(r.required_miss_reduction_per_call, 3)});
  t.AddRow({"available mem ops / call", "7 (malloc), 10 (free)",
            FormatFixed(r.available_mem_ops_per_call, 2) + " avg"});
  t.AddRow({"offload feasible", "yes", r.feasible ? "yes" : "NO"});
  std::cout << t.ToString() << "\n";

  // Cross-validation: derive the miss penalty from our own simulator runs
  // (Mimalloc vs PTMalloc2 on the xalanc-like workload), as the paper derives
  // 214 cycles from its Mimalloc-vs-Glibc measurements.
  std::cout << "cross-validating the miss penalty against simulator runs...\n";
  auto run = [&cli](const std::string& name) {
    const XalancRun xr = RunXalanc(MachineConfig::ScaledWorkstation(2), cli.TelemetrySetup(), name,
                                   XalancBenchConfig());
    cli.Capture(*xr.machine);
    return xr.result;
  };
  const RunResult pt = run("ptmalloc2");
  const RunResult mi = run("mimalloc");
  const double penalty = MissPenaltyFromCounters(pt.app, mi.app);
  std::cout << "simulator-derived LLC/TLB miss penalty: " << FormatFixed(penalty, 1)
            << " cycles (paper derives 214 on its hardware)\n\n";

  // Re-run the model with the simulator-derived penalty and this workload's
  // own call counts.
  BreakEvenInputs sim_in = in;
  sim_in.malloc_calls = mi.alloc_stats.mallocs;
  sim_in.free_calls = mi.alloc_stats.frees;
  sim_in.miss_penalty_cycles = penalty;
  const BreakEvenResult sim_r = ComputeBreakEven(sim_in);
  std::cout << "with simulator inputs: overhead " << FormatSci(sim_r.overhead_cycles, 2)
            << " cycles, break-even " << FormatFixed(sim_r.required_miss_reduction_per_call, 2)
            << " misses/call, feasible: " << (sim_r.feasible ? "yes" : "no") << "\n";

  cli.Metric("paper_overhead_cycles", r.overhead_cycles);
  cli.Metric("paper_required_miss_reduction_per_call", r.required_miss_reduction_per_call);
  cli.Metric("paper_feasible", JsonValue(r.feasible));
  cli.Metric("sim_miss_penalty_cycles", penalty);
  cli.Metric("sim_overhead_cycles", sim_r.overhead_cycles);
  cli.Metric("sim_required_miss_reduction_per_call", sim_r.required_miss_reduction_per_call);
  cli.Metric("sim_feasible", JsonValue(sim_r.feasible));
  return cli.Finish();
}
