// Ablation for Section 3.1.1: the offload cost/benefit frontier.
//
// "The majority of memory allocation calls ... can be finished within 100
// cycles. In comparison to allocation time-scales, the overhead of
// inter-core communication is non-negligible."
//
// This bench sweeps the knobs that decide whether offloading pays:
//   * cache-to-cache transfer latency (how far away the allocator's room is)
//   * sync vs async free
//   * allocation granularity (how much user work happens per allocation)
// and reports the frontier against the best inline allocator.
#include "bench/bench_common.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

// Cluster-style machine (Table 3's A1-like semantics): the sweep then shows
// a real break-even frontier instead of a uniformly losing offload.
MachineConfig SweepMachine() {
  MachineConfig m = MachineConfig::ScaledWorkstation(2);
  m.atomic_rmw_latency = 40;
  m.atomic_remote_extra = 60;
  m.count_hitm_as_llc_miss = false;
  return m;
}

XalancConfig SweepWorkload(std::uint32_t compute_per_node) {
  XalancConfig cfg = XalancBenchConfig();
  cfg.documents = 10;  // heap aging: the benefit accrues as pollution accumulates
  cfg.compute_per_node = compute_per_node;
  return cfg;
}

std::uint64_t RunNgx(std::uint64_t transfer_latency, bool async_free,
                     std::uint32_t compute_per_node) {
  MachineConfig mc = SweepMachine();
  mc.remote_transfer_latency = transfer_latency;
  NgxConfig cfg;
  cfg.async_free = async_free;
  cfg.hugepage_spans = false;  // match the no-THP baseline below
  const XalancRun run = RunXalanc(mc, {}, NextGen{cfg}, SweepWorkload(compute_per_node));
  run.system.fabric->DrainAll();
  return run.result.wall_cycles;
}

// Mimalloc inline on 4-KiB pages: the best inline allocator.
std::uint64_t RunInlineBaseline(std::uint32_t compute_per_node) {
  MiConfig mi_cfg;
  mi_cfg.hugepage_backing = false;
  return RunXalanc(SweepMachine(), {}, mi_cfg, SweepWorkload(compute_per_node)).result.wall_cycles;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_offload_tradeoff", argc, argv);
  std::cout << "=== Ablation (3.1.1): offload cost/benefit trade-off ===\n\n";

  // Sweep 1: how expensive may the channel be?
  std::cout << "--- sweep: cache-to-cache transfer latency (async free) ---\n";
  const std::uint64_t mi_wall = RunInlineBaseline(1600);
  TextTable t1({"transfer latency (cycles)", "NextGen wall cycles", "vs Mimalloc inline"});
  JsonValue lat_sweep = JsonValue::Array();
  for (const std::uint64_t lat : {20ull, 45ull, 80ull, 110ull, 200ull, 400ull}) {
    const std::uint64_t w = RunNgx(lat, /*async_free=*/true, 1600);
    t1.AddRow({FormatInt(lat), FormatSci(static_cast<double>(w)),
               FormatFixed(100.0 * (static_cast<double>(mi_wall) / w - 1.0), 2) + "%"});
    JsonValue o = JsonValue::Object();
    o.Set("transfer_latency", JsonValue(lat));
    o.Set("nextgen_wall_cycles", JsonValue(w));
    o.Set("vs_mimalloc_pct", JsonValue(100.0 * (static_cast<double>(mi_wall) / w - 1.0)));
    lat_sweep.Push(o);
  }
  std::cout << t1.ToString() << "\n";
  cli.Set("transfer_latency_sweep", lat_sweep);
  cli.Metric("mimalloc_inline_wall_cycles", mi_wall);

  // Sweep 2: async vs sync free.
  std::cout << "--- async free (3.1.2: free is off the critical path) ---\n";
  TextTable t2({"free mode", "NextGen wall cycles"});
  t2.AddRow({"async ring", FormatSci(static_cast<double>(RunNgx(45, true, 1600)))});
  t2.AddRow({"synchronous round trip", FormatSci(static_cast<double>(RunNgx(45, false, 1600)))});
  std::cout << t2.ToString() << "\n";

  // Sweep 3: allocation granularity: with little user work per allocation,
  // the handshake dominates (the Shenango-vs-malloc granularity gap).
  std::cout << "--- sweep: user work per allocation ---\n";
  TextTable t3({"compute per node", "NextGen vs Mimalloc inline"});
  JsonValue work_sweep = JsonValue::Array();
  for (const std::uint32_t work : {0u, 200u, 800u, 1600u, 6400u}) {
    const std::uint64_t ngx_w = RunNgx(45, true, work);
    const std::uint64_t mi_w = RunInlineBaseline(work);
    t3.AddRow({FormatInt(work),
               FormatFixed(100.0 * (static_cast<double>(mi_w) / ngx_w - 1.0), 2) + "%"});
    JsonValue o = JsonValue::Object();
    o.Set("compute_per_node", JsonValue(static_cast<std::uint64_t>(work)));
    o.Set("vs_mimalloc_pct", JsonValue(100.0 * (static_cast<double>(mi_w) / ngx_w - 1.0)));
    work_sweep.Push(o);
  }
  std::cout << t3.ToString() << "\n";
  cli.Set("granularity_sweep", work_sweep);

  std::cout << "expectation: offloading wins only when the communication overhead is\n"
            << "low (same-cluster core) and there is enough user work to hide behind;\n"
            << "fine-grained allocation with an expensive channel loses -- the paper's\n"
            << "open question made quantitative.\n";
  return cli.Finish();
}
