// Ablation for watermark span rebalancing + the return protocol
// (DESIGN.md §8): what does the background span economy buy over reactive
// inline donation on a two-phase skewed tenant mix?
//
// Phase 1 (burst): tenant 0 accumulates a working set of 36-60 KiB buffers
// -- one 64 KiB span each, far beyond its shard's slice -- churns it, then
// frees everything. Phase 2: the same tenant drops to sub-256 B churn while
// the light tenants keep churning small blocks throughout.
//
// With watermarks off (span_low_mark = 0) every refill happens inline: the
// burst tenant's mallocs fail first, then pay the kDonateSpan round trip on
// the critical path, and the donated spans stay captured after the burst.
// With watermarks on, the per-shard rebalancer refills ahead of demand
// (inline fallbacks -> 0), restocks the provider from the local recycled
// pool, and the kReturnSpan protocol flows the recycled donations back to
// their home shard -- the post-burst per-shard free-span split lands within
// 10% of the pre-burst equal slices.
#include "bench/bench_common.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

constexpr int kClients = 4;
constexpr int kShards = 4;
constexpr std::uint64_t kSpansPerShard = 256;  // 64 MiB window / 4 shards

// Tenant 0 bursts ~400 spans' worth of 36-60 KiB buffers (vs a 256-span
// slice), then drops to small churn; the others churn small blocks
// throughout. Each phase frees its blocks newest first, one per step, so the
// allocator cores keep getting drain ticks. OOM does not abort the bench -- the thread
// just stops, and the partition_oom_failures counter tells the story.
Churn TwoPhaseSkew() {
  const ChurnConfig burst = TenantChurn(400, 300, 36 * 1024, 60 * 1024);
  const ChurnConfig small = TenantChurn(400, 1500, 64, 256);
  return Churn({{burst, small}, {small}}, ChurnDrain::kNewestFirst);
}

struct CasePoint {
  bool rebalance = false;
  std::uint64_t wall = 0;
  std::uint64_t partition_ooms = 0;
  std::uint64_t inline_fallbacks = 0;
  std::uint64_t rebalance_moves = 0;
  std::uint64_t donated_spans = 0;
  std::uint64_t returned_spans = 0;
  std::vector<std::uint64_t> free_spans;  // per shard, end of run
  double max_dev_pct = 0.0;               // vs the pre-burst 256-span split
};

CasePoint RunCase(BenchCli& cli, bool rebalance) {
  Machine machine(MachineConfig::Default(kClients + kShards));
  cli.EnableTelemetry(machine, /*allow_trace=*/rebalance);
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = kShards;
  cfg.span_donation = true;
  // Spans stay 4 KiB-backed so the slice budget is real (with hugepage_spans
  // every span map consumes a whole 2 MiB of window).
  cfg.hugepage_spans = false;
  cfg.heap_window = 64ull << 20;  // 256 spans per shard
  if (rebalance) {
    cfg.span_low_mark = 16;
    cfg.span_high_mark = 32;
  }
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*first_server_core=*/kClients);

  Churn workload = TwoPhaseSkew();
  RunOptions opt;
  opt.cores = FirstCores(kClients);
  opt.seed = 7;
  for (int s = 0; s < kShards; ++s) {
    opt.server_cores.push_back(kClients + s);
  }
  const RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
  // Each drain gives every shard one more watermark tick: let the tail of
  // the return protocol flow home before measuring the footprint split.
  for (int i = 0; i < 8; ++i) {
    sys.fabric->DrainAll();
  }
  cli.Capture(machine);

  CasePoint out;
  out.rebalance = rebalance;
  out.wall = r.wall_cycles;
  out.partition_ooms = sys.allocator->partition_oom_failures();
  out.inline_fallbacks = sys.allocator->inline_donation_fallbacks();
  out.rebalance_moves = sys.allocator->rebalance_moves();
  const SpanDirectory& d = *sys.allocator->directory();
  out.donated_spans = d.total_donated();
  out.returned_spans = d.total_returned();
  for (int s = 0; s < kShards; ++s) {
    const std::uint64_t f = d.free_spans(s);
    out.free_spans.push_back(f);
    const double dev = f > kSpansPerShard ? static_cast<double>(f - kSpansPerShard)
                                          : static_cast<double>(kSpansPerShard - f);
    out.max_dev_pct = std::max(out.max_dev_pct, 100.0 * dev / kSpansPerShard);
  }
  return out;
}

std::string SpanList(const std::vector<std::uint64_t>& spans) {
  std::string s;
  for (const std::uint64_t v : spans) {
    s += (s.empty() ? "" : ",") + std::to_string(v);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_rebalance", argc, argv);
  std::cout << "=== Ablation: watermark span rebalancing + return protocol ===\n\n";
  std::cout << kClients << " clients / " << kShards
            << " shards, 256-span slices; tenant 0 bursts 36-60 KiB buffers (~400\n"
            << "spans), frees them, then drops to sub-256 B churn. \"inline fallbacks\"\n"
            << "are mallocs that failed first and paid span donation on the critical\n"
            << "path; \"max dev\" is the end-of-run free-span deviation from the\n"
            << "pre-burst equal split.\n\n";

  TextTable t({"watermarks", "wall cycles", "partition OOMs", "inline fallbacks",
               "bg moves", "donated spans", "returned spans", "free spans/shard", "max dev"});
  const CasePoint off = RunCase(cli, false);
  std::cerr << "[done] watermarks=off\n";
  const CasePoint on = RunCase(cli, true);
  std::cerr << "[done] watermarks=on\n";
  for (const CasePoint& p : {off, on}) {
    t.AddRow({p.rebalance ? "on" : "off", FormatSci(static_cast<double>(p.wall)),
              FormatInt(p.partition_ooms), FormatInt(p.inline_fallbacks),
              FormatInt(p.rebalance_moves), FormatInt(p.donated_spans),
              FormatInt(p.returned_spans), SpanList(p.free_spans),
              FormatFixed(p.max_dev_pct, 1) + "%"});
  }
  std::cout << t.ToString() << "\n";

  std::cout << "inline donation fallbacks: off -> " << off.inline_fallbacks << ", on -> "
            << on.inline_fallbacks << "\n";
  std::cout << "post-burst free-span split: off -> max dev " << FormatFixed(off.max_dev_pct, 1)
            << "% (burst capture), on -> " << FormatFixed(on.max_dev_pct, 1) << "% ("
            << on.returned_spans << " spans returned home)\n";
  std::cout << "expectation: watermarks -> zero inline fallbacks and a post-burst split\n"
            << "within 10% of the pre-burst slices; both runs finish with zero\n"
            << "partition OOMs.\n";

  JsonValue cases = JsonValue::Array();
  for (const CasePoint& p : {off, on}) {
    JsonValue o = JsonValue::Object();
    o.Set("watermarks", JsonValue(p.rebalance));
    o.Set("wall_cycles", JsonValue(p.wall));
    o.Set("partition_oom_failures", JsonValue(p.partition_ooms));
    o.Set("inline_donation_fallbacks", JsonValue(p.inline_fallbacks));
    o.Set("rebalance_moves", JsonValue(p.rebalance_moves));
    o.Set("donated_spans", JsonValue(p.donated_spans));
    o.Set("returned_spans", JsonValue(p.returned_spans));
    JsonValue spans = JsonValue::Array();
    for (const std::uint64_t f : p.free_spans) {
      spans.Push(JsonValue(f));
    }
    o.Set("free_spans_per_shard", spans);
    o.Set("max_free_span_deviation_pct", JsonValue(p.max_dev_pct));
    cases.Push(o);
  }
  cli.Set("cases", cases);
  cli.Metric("inline_fallbacks_off", off.inline_fallbacks);
  cli.Metric("inline_fallbacks_on", on.inline_fallbacks);
  cli.Metric("max_free_span_deviation_pct_off", off.max_dev_pct);
  cli.Metric("max_free_span_deviation_pct_on", on.max_dev_pct);
  cli.Metric("returned_spans_on", on.returned_spans);
  return cli.Finish();
}
