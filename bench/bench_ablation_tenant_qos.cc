// Ablation for tenants (DESIGN.md §15): how much does a latency-sensitive
// tenant pay for sharing a shard with a heavy one?
//
// Four tenants ride the span-donation bench's skewed mix: "frontend"
// (unbatched frees, the low-latency contract) churns small blocks on core 0,
// "analytics" (free_batch 32, a throughput contract) churns 8-16 KiB buffers
// on core 2, and two workers on the global knobs churn small blocks on cores
// 1 and 3. Static-by-client routing puts frontend and analytics on the
// SAME shard (cores 0 and 2 -> shard 0). The shard is one core serving one
// request at a time, so a frontend malloc sent while analytics' handler runs
// waits for that handler to end. The bench reports frontend's sync p99
// mixed against running alone: the interference a non-preemptive room
// cannot hide.
//
// A second section pins the tenant layer's bit-identity contract: the Table 3
// pipeline run with an all-default tenant list must replay the exact same
// simulated history (same SimStateHash) as the run with no tenants at all,
// and both must replay kTable3PipelineHash. CI asserts both claims from the
// JSON metrics.
#include "bench/bench_common.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

constexpr int kClients = 4;
constexpr int kShards = 2;
constexpr std::uint32_t kAnalyticsFreeBatch = 32;
constexpr std::uint32_t kEagerDrainAt = 32;

// Thread i runs core i's load (frontend, worker, analytics, worker), so the
// run-alone case (cores = {0}) exercises exactly the same frontend behaviour
// as the mixed case. Frontend and the workers stay small; analytics is the
// heavy tenant. OOM does not abort the bench -- the thread just stops.
Churn QosMix() {
  const ChurnConfig frontend = TenantChurn(400, 3000, 64, 256, /*work=*/120);  // request handling
  const ChurnConfig analytics = TenantChurn(1600, 1200, 8 * 1024, 16 * 1024, /*work=*/30);
  const ChurnConfig worker = TenantChurn(400, 2000, 64, 256, /*work=*/60);
  return Churn({{frontend}, {worker}, {analytics}, {worker}}, ChurnDrain::kFillOrder);
}

NgxConfig QosConfig() {
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = kShards;
  cfg.hugepage_spans = false;

  TenantSpec frontend;
  frontend.name = "frontend";
  frontend.cores = {0};
  frontend.free_batch = 1;  // each free publishes at once
  TenantSpec analytics;
  analytics.name = "analytics";
  analytics.cores = {2};
  analytics.free_batch = kAnalyticsFreeBatch;
  TenantSpec worker_a;
  worker_a.name = "worker_a";
  worker_a.cores = {1};
  TenantSpec worker_b;
  worker_b.name = "worker_b";
  worker_b.cores = {3};
  cfg.tenants = {frontend, analytics, worker_a, worker_b};
  return cfg;
}

struct QosPoint {
  std::string label;
  std::uint64_t wall = 0;
  std::vector<std::string> tenant_names;
  std::vector<HistogramSummary> tenant_latency;
  std::uint64_t ring_full_stalls = 0;
  std::uint64_t busy_waits = 0;

  const HistogramSummary& Tenant(const std::string& name) const {
    for (std::size_t i = 0; i < tenant_names.size(); ++i) {
      if (tenant_names[i] == name) {
        return tenant_latency[i];
      }
    }
    static const HistogramSummary kEmpty{};
    return kEmpty;
  }
};

QosPoint RunCase(BenchCli& cli, const std::string& label, bool mixed) {
  Machine machine(MachineConfig::Default(kClients + kShards));
  // The mixed run is the traced one.
  cli.EnableTelemetry(machine, /*allow_trace=*/mixed);
  NgxSystem sys = MakeNgxSystem(machine, QosConfig(), /*first_server_core=*/kClients);
  // Background drain threshold in both cases (the server's poll loop notices
  // filling rings); what changes is only who shares the shard.
  sys.fabric->set_eager_drain_at(kEagerDrainAt);

  Churn workload = QosMix();
  RunOptions opt;
  opt.cores = mixed ? FirstCores(kClients) : std::vector<int>{0};
  opt.seed = 7;
  for (int s = 0; s < kShards; ++s) {
    opt.server_cores.push_back(kClients + s);
  }
  const RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  cli.Capture(machine);

  QosPoint out;
  out.label = label;
  out.wall = r.wall_cycles;
  out.tenant_names = r.tenant_names;
  out.tenant_latency = r.tenant_sync_latency;
  out.ring_full_stalls = sys.fabric->TotalStats().ring_full_stalls;
  out.busy_waits = sys.fabric->TotalStats().server_busy_waits;
  return out;
}

// Replays bench_table3_nextgen's pipeline row (the pinned final-state hash)
// with and without an all-default tenant list. Telemetry stays off, exactly
// like the hashed run there.
std::uint64_t HashedPipelineRun(bool with_default_tenant) {
  NgxConfig cfg = Table3PipelineConfig();
  if (with_default_tenant) {
    TenantSpec spec;
    spec.name = "default_tenant";
    spec.cores = {0};
    cfg.tenants.push_back(spec);
  }
  const XalancRun run = RunXalanc(Table3Machine(), {}, NextGen{cfg}, XalancTable3Config());
  run.system.fabric->DrainAll();
  return SimStateHash(run.result);
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_tenant_qos", argc, argv);
  std::cout << "=== Ablation: per-tenant traits on a shared shard ===\n\n";
  std::cout << kClients << " clients / " << kShards << " shards, static-by-client routing:\n"
            << "frontend (low_latency, core 0) shares shard 0 with analytics (throughput,\n"
            << "free_batch=" << kAnalyticsFreeBatch << ", core 2). sync latency is the "
            << "client-observed malloc round trip.\n\n";

  const QosPoint alone = RunCase(cli, "frontend alone", /*mixed=*/false);
  std::cerr << "[done] frontend alone\n";
  const QosPoint mixed = RunCase(cli, "mixed", /*mixed=*/true);
  std::cerr << "[done] mixed\n";

  const std::uint64_t alone_p99 = alone.Tenant("frontend").p99;
  const std::uint64_t mixed_p99 = mixed.Tenant("frontend").p99;
  const double ratio = Ratio(mixed_p99, alone_p99);

  TextTable t({"case", "frontend p50", "frontend p99", "analytics p99", "wall cycles",
               "ring-full stalls"});
  for (const QosPoint* p : {&alone, &mixed}) {
    t.AddRow({p->label, FormatInt(p->Tenant("frontend").p50),
              FormatInt(p->Tenant("frontend").p99), FormatInt(p->Tenant("analytics").p99),
              FormatSci(static_cast<double>(p->wall)), FormatInt(p->ring_full_stalls)});
  }
  std::cout << t.ToString() << "\n";

  std::cout << "frontend sync p99, mixed vs run-alone: " << FormatFixed(ratio, 2) << "x\n";
  std::cout << "the shard serves one request at a time: a frontend malloc sent while an\n"
            << "analytics handler runs waits for it to end (DESIGN.md §15).\n\n";

  // Bit-identity: the tenant layer must be pure configuration plumbing. An
  // all-default tenant list resolves to exactly the global knobs, so the
  // Table 3 pipeline history -- the hash bench_table3_nextgen pins -- must
  // replay byte-for-byte.
  const std::uint64_t hash_plain = HashedPipelineRun(/*with_default_tenant=*/false);
  const std::uint64_t hash_tenant = HashedPipelineRun(/*with_default_tenant=*/true);
  const bool bit_identical = hash_plain == hash_tenant;
  const bool pinned = hash_plain == kTable3PipelineHash;
  std::cerr << "[done] bit-identity replay\n";
  std::cout << "default-traits bit-identity: " << (bit_identical ? "ok" : "FAILED")
            << " (final-state hash " << HashHex(hash_plain) << ", pinned "
            << (pinned ? "ok" : "MISMATCH") << ")\n";

  JsonValue cases = JsonValue::Array();
  for (const QosPoint* p : {&alone, &mixed}) {
    JsonValue o = JsonValue::Object();
    o.Set("label", JsonValue(p->label));
    o.Set("wall_cycles", JsonValue(p->wall));
    o.Set("ring_full_stalls", JsonValue(p->ring_full_stalls));
    o.Set("server_busy_waits", JsonValue(p->busy_waits));
    JsonValue tenants = JsonValue::Object();
    for (std::size_t i = 0; i < p->tenant_names.size(); ++i) {
      tenants.Set(p->tenant_names[i], SummaryJson(p->tenant_latency[i]));
    }
    o.Set("tenant_sync_latency", tenants);
    cases.Push(o);
  }
  cli.Set("cases", cases);
  cli.Metric("frontend_alone_p99", alone_p99);
  cli.Metric("frontend_mixed_p99", mixed_p99);
  cli.Metric("interference_ratio", ratio);
  cli.Metric("analytics_mixed_p99", mixed.Tenant("analytics").p99);
  cli.Metric("mixed_wall_cycles", mixed.wall);
  cli.Metric("traits_bit_identical", JsonValue(bit_identical));
  cli.Metric("replays_pinned_hash", JsonValue(pinned));
  cli.Metric("final_state_hash", JsonValue(HashHex(hash_plain)));

  if (!bit_identical) {
    std::cerr << "error: all-default tenant list diverged from the tenant-free run ("
              << std::hex << hash_tenant << " != " << hash_plain << std::dec << ")\n";
    cli.Finish();
    return 1;
  }
  return cli.Finish();
}
