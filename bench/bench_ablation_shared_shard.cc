// Ablation for a shared shard (DESIGN.md §15): how much does a
// latency-sensitive client pay for sharing a shard with a heavy one?
//
// Four clients ride the span-donation bench's skewed mix, all on the one
// client contract -- a synchronous malloc and an unbatched asynchronous free
// (free_batch = 1): "frontend" churns small blocks on core 0, "analytics"
// churns 8-16 KiB buffers on core 2, and two workers churn small blocks on
// cores 1 and 3. Static-by-client routing puts frontend and analytics on the
// SAME shard (cores 0 and 2 -> shard 0). The shard is one core serving one
// request at a time, so a frontend malloc sent while analytics' handler runs
// waits for that handler to end. Every malloc is timed on its calling core
// (MallocClock), and the bench reports frontend's exact nearest-rank malloc
// p99 mixed against running alone: the interference a non-preemptive room
// cannot hide.
#include "bench/bench_common.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

constexpr int kClients = 4;
constexpr int kShards = 2;
constexpr int kFrontendCore = 0;
constexpr int kAnalyticsCore = 2;
constexpr std::uint32_t kEagerDrainAt = 32;

// Thread i runs core i's load (frontend, worker, analytics, worker), so the
// run-alone case (cores = {0}) exercises exactly the same frontend behaviour
// as the mixed case. Frontend and the workers stay small; analytics is the
// heavy client. OOM does not abort the bench -- the thread just stops.
Churn SharedShardMix() {
  const ChurnConfig frontend = TenantChurn(400, 3000, 64, 256, /*work=*/120);  // request handling
  const ChurnConfig analytics = TenantChurn(1600, 1200, 8 * 1024, 16 * 1024, /*work=*/30);
  const ChurnConfig worker = TenantChurn(400, 2000, 64, 256, /*work=*/60);
  return Churn({{frontend}, {worker}, {analytics}, {worker}}, ChurnDrain::kFillOrder);
}

struct CasePoint {
  std::string label;
  std::uint64_t wall = 0;
  std::uint64_t frontend_p50 = 0;
  std::uint64_t frontend_p99 = 0;
  std::uint64_t analytics_p99 = 0;  // 0 when analytics does not run
  std::uint64_t ring_full_stalls = 0;
  std::uint64_t busy_waits = 0;
  std::uint64_t mallocs = 0;
  std::uint64_t frees = 0;
};

CasePoint RunCase(BenchCli& cli, const std::string& label, bool mixed) {
  Machine machine(MachineConfig::Default(kClients + kShards));
  // The mixed run is the traced one.
  cli.EnableTelemetry(machine, /*allow_trace=*/mixed);
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = kShards;
  cfg.hugepage_spans = false;
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*first_server_core=*/kClients);
  // Background drain threshold in both cases (the server's poll loop notices
  // filling rings); what changes is only who shares the shard.
  sys.fabric->set_eager_drain_at(kEagerDrainAt);
  MallocClock clock(*sys.allocator);

  Churn workload = SharedShardMix();
  RunOptions opt;
  opt.cores = mixed ? FirstCores(kClients) : std::vector<int>{kFrontendCore};
  opt.seed = 7;
  for (int s = 0; s < kShards; ++s) {
    opt.server_cores.push_back(kClients + s);
  }
  const RunResult r = RunWorkload(machine, clock, workload, opt);
  sys.fabric->DrainAll();
  cli.Capture(machine);

  CasePoint out;
  out.label = label;
  out.wall = r.wall_cycles;
  out.frontend_p50 = clock.Quantile(50, kFrontendCore);
  out.frontend_p99 = clock.Quantile(99, kFrontendCore);
  out.analytics_p99 = clock.Quantile(99, kAnalyticsCore);
  out.ring_full_stalls = sys.fabric->TotalStats().ring_full_stalls;
  out.busy_waits = sys.fabric->TotalStats().server_busy_waits;
  const AllocatorStats books = sys.allocator->stats();
  out.mallocs = books.mallocs;
  out.frees = books.frees;
  return out;
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_shared_shard", argc, argv);
  std::cout << "=== Ablation: a latency-sensitive client on a shared shard ===\n\n";
  std::cout << kClients << " clients / " << kShards << " shards, static-by-client routing, "
            << "free_batch=1 on every client:\n"
            << "frontend (core " << kFrontendCore << ") shares shard 0 with analytics (8-16 KiB "
            << "buffers, core " << kAnalyticsCore << ").\n"
            << "malloc latency is every malloc of one core, timed on that core.\n\n";

  const CasePoint alone = RunCase(cli, "frontend alone", /*mixed=*/false);
  std::cerr << "[done] frontend alone\n";
  const CasePoint mixed = RunCase(cli, "mixed", /*mixed=*/true);
  std::cerr << "[done] mixed\n";

  const double ratio = Ratio(mixed.frontend_p99, alone.frontend_p99);
  TextTable t({"case", "frontend malloc p50", "frontend malloc p99", "analytics malloc p99",
               "wall cycles", "ring-full stalls"});
  for (const CasePoint* p : {&alone, &mixed}) {
    t.AddRow({p->label, FormatInt(p->frontend_p50), FormatInt(p->frontend_p99),
              p->analytics_p99 > 0 ? FormatInt(p->analytics_p99) : "-",
              FormatInt(p->wall), FormatInt(p->ring_full_stalls)});
  }
  std::cout << t.ToString() << "\n";

  std::cout << "frontend malloc p99, mixed vs run-alone: " << FormatFixed(ratio, 2) << "x\n";
  std::cout << "the shard serves one request at a time: a frontend malloc sent while an\n"
            << "analytics handler runs waits for it to end (DESIGN.md §15).\n";
  bool balanced = true;
  for (const CasePoint* p : {&alone, &mixed}) {
    balanced = balanced && p->mallocs == p->frees;
    std::cout << p->label << ": " << FormatInt(p->mallocs) << " mallocs, "
              << FormatInt(p->frees) << " frees after the drain\n";
  }

  JsonValue cases = JsonValue::Array();
  for (const CasePoint* p : {&alone, &mixed}) {
    JsonValue o = JsonValue::Object();
    o.Set("label", JsonValue(p->label));
    o.Set("wall_cycles", JsonValue(p->wall));
    o.Set("frontend_malloc_p50", JsonValue(p->frontend_p50));
    o.Set("frontend_malloc_p99", JsonValue(p->frontend_p99));
    o.Set("analytics_malloc_p99", JsonValue(p->analytics_p99));
    o.Set("ring_full_stalls", JsonValue(p->ring_full_stalls));
    o.Set("server_busy_waits", JsonValue(p->busy_waits));
    o.Set("mallocs", JsonValue(p->mallocs));
    o.Set("frees", JsonValue(p->frees));
    cases.Push(o);
  }
  cli.Set("cases", cases);
  cli.Metric("frontend_alone_p99", alone.frontend_p99);
  cli.Metric("frontend_mixed_p50", mixed.frontend_p50);
  cli.Metric("frontend_mixed_p99", mixed.frontend_p99);
  cli.Metric("interference_ratio", ratio);
  cli.Metric("analytics_mixed_p99", mixed.analytics_p99);
  cli.Metric("alone_wall_cycles", alone.wall);
  cli.Metric("mixed_wall_cycles", mixed.wall);
  cli.Metric("ring_full_stalls", alone.ring_full_stalls + mixed.ring_full_stalls);
  cli.Metric("books_balanced", JsonValue(balanced));

  if (!balanced) {
    std::cerr << "error: a block was lost (mallocs != frees after the drain)\n";
    cli.Finish();
    return 1;
  }
  return cli.Finish();
}
