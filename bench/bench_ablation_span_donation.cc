// Ablation for the elastic heap fabric (DESIGN.md §7): what do span donation
// and batched remote-free flushes buy on a skewed size-class mix?
//
// The sharded fabric partitions the heap window into equal per-shard slices.
// A skewed mix -- one tenant churning 8-16 KiB buffers while its neighbours
// churn sub-256 B blocks -- exhausts the heavy tenant's slice while the others
// sit on free spans. With span_donation the dry shard refills itself over the
// fabric's kDonateSpan message and the run completes with zero
// out-of-partition failures; without it the heavy tenant hits the partition
// wall. Independently, free_batch > 1 buffers remote frees per (client,
// shard) and flushes them `free_batch` entries per ring doorbell, amortizing
// the head cache-line transfer that every fire-and-forget free used to pay.
//
// A second section prices cluster-aware shard placement: on a machine with
// 2-core clusters (A72-style shared L2), placing each shard's server core
// inside its clients' cluster turns the mailbox ping-pong into same-cluster
// transfers.
#include "bench/bench_common.h"

#include "src/workload/alloc_ops.h"
#include "src/workload/churn.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

// Churn with a per-thread size range: cores[0] is the heavy tenant, everyone
// else stays small. OOM does not abort the bench -- the thread just stops,
// and the partition_oom_failures counter tells the story.
struct TenantConfig {
  std::uint32_t live_blocks = 0;
  std::uint32_t ops = 0;
  std::uint64_t min_size = 0;
  std::uint64_t max_size = 0;
};

class TenantThread : public SimThread {
 public:
  TenantThread(const TenantConfig& config, Allocator& alloc, int core, std::uint64_t seed)
      : config_(config), alloc_(&alloc), core_(core), rng_(seed) {
    blocks_.reserve(config.live_blocks);
  }

  int core_id() const override { return core_; }

  bool Step(Env& env) override {
    if (blocks_.size() < config_.live_blocks) {
      const Addr b = TimedMalloc(env, *alloc_, rng_.Range(config_.min_size, config_.max_size));
      if (b == kNullAddr) {
        return false;  // partition wall; the allocator counted the failure
      }
      env.TouchWrite(b, 32);
      blocks_.push_back(b);
      return true;
    }
    if (done_ >= config_.ops) {
      for (const Addr b : blocks_) {
        TimedFree(env, *alloc_, b);
      }
      blocks_.clear();
      return false;
    }
    const std::size_t i = rng_.Below(blocks_.size());
    TimedFree(env, *alloc_, blocks_[i]);
    const Addr b = TimedMalloc(env, *alloc_, rng_.Range(config_.min_size, config_.max_size));
    if (b == kNullAddr) {
      blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i));
      return false;
    }
    env.TouchWrite(b, 32);
    env.Work(30);
    blocks_[i] = b;
    ++done_;
    return true;
  }

 private:
  TenantConfig config_;
  Allocator* alloc_;
  int core_;
  Rng rng_;
  std::vector<Addr> blocks_;
  std::uint32_t done_ = 0;
};

class SkewedChurn : public Workload {
 public:
  SkewedChurn(TenantConfig heavy, TenantConfig light) : heavy_(heavy), light_(light) {}
  std::string_view name() const override { return "skewed-churn"; }
  std::vector<std::unique_ptr<SimThread>> MakeThreads(Machine& machine, Allocator& alloc,
                                                      const std::vector<int>& cores,
                                                      std::uint64_t seed) override {
    (void)machine;
    std::vector<std::unique_ptr<SimThread>> threads;
    threads.reserve(cores.size());
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const TenantConfig& cfg = i == 0 ? heavy_ : light_;
      threads.push_back(std::make_unique<TenantThread>(cfg, alloc, cores[i], seed + 31 * i));
    }
    return threads;
  }

 private:
  TenantConfig heavy_;
  TenantConfig light_;
};

constexpr int kClients = 4;
constexpr int kShards = 4;

struct SweepPoint {
  bool donation = false;
  std::uint32_t free_batch = 0;
  std::uint64_t wall = 0;
  std::uint64_t partition_ooms = 0;
  std::uint64_t donated_spans = 0;
  std::uint64_t ring_doorbells = 0;
  std::uint64_t free_flushes = 0;
  HistogramSummary flush_occupancy;
  std::uint64_t max_shard_sync_p99 = 0;
  std::vector<std::uint64_t> donated_in;  // per shard
};

SweepPoint RunCase(BenchCli& cli, bool donation, std::uint32_t free_batch) {
  Machine machine(MachineConfig::Default(kClients + kShards));
  // The donation-on / free_batch=8 point is the traced run.
  cli.EnableTelemetry(machine, /*allow_trace=*/donation && free_batch == 8);
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = kShards;
  cfg.span_donation = donation;
  cfg.free_batch = free_batch;
  // 16 MiB per shard: small enough that the heavy tenant's retained set
  // (~1600 x 8-16 KiB = ~19 MiB) overruns its slice, large enough that the
  // three light tenants never come close. Spans stay 4 KiB-backed: with
  // hugepage_spans every 64 KiB span map consumes a whole 2 MiB of window,
  // which would turn the slice budget into a page-alignment artifact.
  cfg.hugepage_spans = false;
  cfg.heap_window = 64ull << 20;
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*first_server_core=*/kClients);

  TenantConfig heavy;
  heavy.live_blocks = 1600;
  heavy.ops = 1200;
  heavy.min_size = 8 * 1024;
  heavy.max_size = 16 * 1024;
  TenantConfig light;
  light.live_blocks = 400;
  light.ops = 3000;
  light.min_size = 64;
  light.max_size = 256;
  SkewedChurn workload(heavy, light);

  RunOptions opt;
  opt.cores = FirstCores(kClients);
  opt.seed = 7;
  for (int s = 0; s < kShards; ++s) {
    opt.server_cores.push_back(kClients + s);
  }
  const RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  cli.Capture(machine);

  SweepPoint out;
  out.donation = donation;
  out.free_batch = free_batch;
  out.wall = r.wall_cycles;
  out.partition_ooms = sys.allocator->partition_oom_failures();
  out.donated_spans = sys.allocator->directory()->total_donated();
  out.ring_doorbells = sys.fabric->TotalStats().ring_doorbells;
  out.free_flushes = sys.allocator->free_flushes();
  out.flush_occupancy = r.free_flush_occupancy;
  for (const HistogramSummary& s : r.shard_sync_latency) {
    out.max_shard_sync_p99 = std::max(out.max_shard_sync_p99, s.p99);
  }
  for (int s = 0; s < kShards; ++s) {
    out.donated_in.push_back(sys.allocator->directory()->donated_in(s));
  }
  return out;
}

// Map-waste honesty (DESIGN.md §16): the same skewed mix on hugepage-backed
// spans. Without packing every 64-KiB span map burns a whole 2-MiB hugepage
// of the 16-MiB slice -- the budget becomes an alignment artifact and the
// heavy tenant hits the wall donation cannot fix (the donors' windows are
// just as wasted). With hugepage_packing the providers carve 32 spans per
// frame, waste collapses to the partially-filled frontier frames and the run
// completes exactly like the 4-KiB configuration.
struct HugepagePoint {
  bool packing = false;
  std::uint64_t wall = 0;
  std::uint64_t partition_ooms = 0;
  std::uint64_t mapped = 0;
  std::uint64_t requested = 0;
  std::uint64_t waste = 0;
};

HugepagePoint RunHugepageCase(BenchCli& cli, bool packing) {
  Machine machine(MachineConfig::Default(kClients + kShards));
  cli.EnableTelemetry(machine, /*allow_trace=*/false);
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = kShards;
  cfg.span_donation = true;
  cfg.free_batch = 8;
  cfg.hugepage_spans = true;
  cfg.hugepage_packing = packing;
  cfg.heap_window = 64ull << 20;
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*first_server_core=*/kClients);

  TenantConfig heavy;
  heavy.live_blocks = 1600;
  heavy.ops = 1200;
  heavy.min_size = 8 * 1024;
  heavy.max_size = 16 * 1024;
  TenantConfig light;
  light.live_blocks = 400;
  light.ops = 3000;
  light.min_size = 64;
  light.max_size = 256;
  SkewedChurn workload(heavy, light);

  RunOptions opt;
  opt.cores = FirstCores(kClients);
  opt.seed = 7;
  for (int s = 0; s < kShards; ++s) {
    opt.server_cores.push_back(kClients + s);
  }
  const RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  cli.Capture(machine);

  HugepagePoint out;
  out.packing = packing;
  out.wall = r.wall_cycles;
  out.partition_ooms = sys.allocator->partition_oom_failures();
  out.mapped = sys.allocator->map_mapped_bytes();
  out.requested = sys.allocator->map_requested_bytes();
  out.waste = sys.allocator->map_waste_bytes();
  return out;
}

struct PlacementPoint {
  std::vector<int> server_cores;
  std::uint64_t wall = 0;
  std::uint64_t max_shard_sync_p99 = 0;
};

// 8 cores in 2-core clusters; clients on cores 0 and 3 so the two shards'
// natural homes sit in different clusters. kPerCluster puts each server next
// to its client (cores 1 and 2); kContiguous banishes both to the far
// clusters (cores 6 and 7), making every mailbox transfer cross-cluster.
PlacementPoint RunPlacement(BenchCli& cli, PlacementKind kind) {
  MachineConfig mc = MachineConfig::Default(8);
  mc.cluster_cores = 2;
  mc.same_cluster_transfer_latency = 30;
  Machine machine(mc);
  cli.EnableTelemetry(machine, /*allow_trace=*/false);
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = 2;
  cfg.placement = kind;
  const std::vector<int> client_cores = {0, 3};
  NgxSystem sys = MakeNgxSystemPlaced(machine, cfg, client_cores);

  ChurnConfig wl_cfg;
  wl_cfg.live_blocks = 600;
  wl_cfg.ops = 6000;
  wl_cfg.min_size = 32;
  wl_cfg.max_size = 512;
  Churn workload(wl_cfg);

  RunOptions opt;
  opt.cores = client_cores;
  opt.seed = 7;
  opt.server_cores = sys.fabric->server_cores();
  const RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  cli.Capture(machine);

  PlacementPoint out;
  out.server_cores = sys.fabric->server_cores();
  out.wall = r.wall_cycles;
  for (const HistogramSummary& s : r.shard_sync_latency) {
    out.max_shard_sync_p99 = std::max(out.max_shard_sync_p99, s.p99);
  }
  return out;
}

std::string CoreList(const std::vector<int>& cores) {
  std::string s;
  for (const int c : cores) {
    s += (s.empty() ? "" : ",") + std::to_string(c);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_span_donation", argc, argv);
  std::cout << "=== Ablation: elastic heap fabric (span donation x free batching) ===\n\n";
  std::cout << kClients << " clients / " << kShards
            << " shards, 16 MiB slices; client 0 churns 8-16 KiB buffers, the\n"
            << "rest churn 64-256 B blocks. \"partition OOMs\" are mallocs the owning\n"
            << "shard could not serve from its slice.\n\n";

  TextTable t({"donation", "free_batch", "wall cycles", "partition OOMs", "donated spans",
               "ring doorbells", "free flushes", "flush occ p50", "sync p99 (max shard)"});
  std::vector<SweepPoint> points;
  for (const bool donation : {false, true}) {
    for (const std::uint32_t free_batch : {1u, 8u, 32u}) {
      const SweepPoint p = RunCase(cli, donation, free_batch);
      points.push_back(p);
      t.AddRow({p.donation ? "on" : "off", FormatInt(p.free_batch),
                FormatSci(static_cast<double>(p.wall)), FormatInt(p.partition_ooms),
                FormatInt(p.donated_spans), FormatInt(p.ring_doorbells),
                FormatInt(p.free_flushes), FormatInt(p.flush_occupancy.p50),
                FormatInt(p.max_shard_sync_p99)});
      std::cerr << "[done] donation=" << (donation ? "on" : "off")
                << " free_batch=" << free_batch << "\n";
    }
  }
  std::cout << t.ToString() << "\n";

  // Headline 1: donation keeps the skewed mix serviceable.
  std::uint64_t ooms_off = 0;
  std::uint64_t ooms_on = 0;
  std::uint64_t donated_on = 0;
  // Headline 2: batching amortizes ring doorbells (donation-on rows, where
  // every run does identical work).
  std::uint64_t doorbells_b1 = 0;
  std::uint64_t doorbells_b8 = 0;
  for (const SweepPoint& p : points) {
    if (p.donation) {
      ooms_on += p.partition_ooms;
      donated_on += p.donated_spans;
      if (p.free_batch == 1) {
        doorbells_b1 = p.ring_doorbells;
      } else if (p.free_batch == 8) {
        doorbells_b8 = p.ring_doorbells;
      }
    } else {
      ooms_off += p.partition_ooms;
    }
  }
  const double doorbell_reduction =
      doorbells_b8 == 0 ? 0.0
                        : static_cast<double>(doorbells_b1) / static_cast<double>(doorbells_b8);
  std::cout << "partition OOMs without donation: " << ooms_off << " (heavy tenant hits its\n"
            << "slice); with donation: " << ooms_on << " across all free_batch points ("
            << donated_on << " spans donated)\n";
  std::cout << "ring doorbells, donation on: free_batch=1 -> " << doorbells_b1
            << ", free_batch=8 -> " << doorbells_b8 << " (" << FormatFixed(doorbell_reduction, 1)
            << "x fewer)\n";
  std::cout << "expectation: donation -> zero partition OOMs; free_batch=8 -> >= 4x fewer\n"
            << "doorbells than unbatched frees.\n\n";

  std::cout << "--- hugepage map-waste honesty (same mix, donation on, batch 8) ---\n";
  const HugepagePoint hp_unpacked = RunHugepageCase(cli, /*packing=*/false);
  std::cerr << "[done] hugepage_spans unpacked\n";
  const HugepagePoint hp_packed = RunHugepageCase(cli, /*packing=*/true);
  std::cerr << "[done] hugepage_spans packed\n";
  TextTable ht({"hugepage spans", "wall cycles", "mapped (MiB)", "requested (MiB)",
                "waste (MiB)", "partition OOMs"});
  for (const HugepagePoint* hp : {&hp_unpacked, &hp_packed}) {
    ht.AddRow({hp->packing ? "packed (32 spans/2MiB)" : "unpacked (1 span/2MiB)",
               FormatSci(static_cast<double>(hp->wall)),
               FormatFixed(static_cast<double>(hp->mapped) / (1 << 20), 1),
               FormatFixed(static_cast<double>(hp->requested) / (1 << 20), 1),
               FormatFixed(static_cast<double>(hp->waste) / (1 << 20), 1),
               FormatInt(hp->partition_ooms)});
  }
  std::cout << ht.ToString() << "\n";
  std::cout << "expectation: unpacked hugepage spans burn ~31/32 of every map, exhaust the\n"
            << "64 MiB window and OOM (the slice budget becomes an alignment artifact);\n"
            << "packing leaves only the partially-filled frontier frames (<= ~2 MiB per\n"
            << "shard), so waste collapses toward 0 and partition OOMs return to the\n"
            << "4 KiB-backed sweep's zero.\n\n";

  std::cout << "--- cluster-aware shard placement (2-core clusters, 2 shards) ---\n";
  const PlacementPoint contiguous = RunPlacement(cli, PlacementKind::kContiguous);
  const PlacementPoint per_cluster = RunPlacement(cli, PlacementKind::kPerCluster);
  TextTable pt({"placement", "server cores", "wall cycles", "sync p99 (max shard)"});
  pt.AddRow({"contiguous", CoreList(contiguous.server_cores),
             FormatSci(static_cast<double>(contiguous.wall)),
             FormatInt(contiguous.max_shard_sync_p99)});
  pt.AddRow({"per_cluster", CoreList(per_cluster.server_cores),
             FormatSci(static_cast<double>(per_cluster.wall)),
             FormatInt(per_cluster.max_shard_sync_p99)});
  std::cout << pt.ToString() << "\n";
  std::cout << "expectation: per-cluster placement turns the mailbox round trip into\n"
            << "same-cluster transfers -- lower sync p99 and wall time than contiguous.\n";

  JsonValue sweep = JsonValue::Array();
  for (const SweepPoint& p : points) {
    JsonValue o = JsonValue::Object();
    o.Set("span_donation", JsonValue(p.donation));
    o.Set("free_batch", JsonValue(static_cast<std::uint64_t>(p.free_batch)));
    o.Set("wall_cycles", JsonValue(p.wall));
    o.Set("partition_oom_failures", JsonValue(p.partition_ooms));
    o.Set("donated_spans", JsonValue(p.donated_spans));
    o.Set("ring_doorbells", JsonValue(p.ring_doorbells));
    o.Set("free_flushes", JsonValue(p.free_flushes));
    o.Set("flush_occupancy", SummaryJson(p.flush_occupancy));
    o.Set("sync_p99_max_shard", JsonValue(p.max_shard_sync_p99));
    JsonValue din = JsonValue::Array();
    for (const std::uint64_t d : p.donated_in) {
      din.Push(JsonValue(d));
    }
    o.Set("donated_in_per_shard", din);
    sweep.Push(o);
  }
  cli.Set("sweep", sweep);
  JsonValue placement = JsonValue::Object();
  for (const auto* pp : {&contiguous, &per_cluster}) {
    JsonValue o = JsonValue::Object();
    JsonValue cores = JsonValue::Array();
    for (const int c : pp->server_cores) {
      cores.Push(JsonValue(c));
    }
    o.Set("server_cores", cores);
    o.Set("wall_cycles", JsonValue(pp->wall));
    o.Set("sync_p99_max_shard", JsonValue(pp->max_shard_sync_p99));
    placement.Set(pp == &contiguous ? "contiguous" : "per_cluster", o);
  }
  cli.Set("placement", placement);
  JsonValue hugepage = JsonValue::Object();
  for (const HugepagePoint* hp : {&hp_unpacked, &hp_packed}) {
    JsonValue o = JsonValue::Object();
    o.Set("wall_cycles", JsonValue(hp->wall));
    o.Set("map_mapped_bytes", JsonValue(hp->mapped));
    o.Set("map_requested_bytes", JsonValue(hp->requested));
    o.Set("map_waste_bytes", JsonValue(hp->waste));
    o.Set("partition_oom_failures", JsonValue(hp->partition_ooms));
    hugepage.Set(hp->packing ? "packed" : "unpacked", o);
  }
  cli.Set("hugepage_waste", hugepage);
  cli.Metric("map_waste_unpacked_bytes", hp_unpacked.waste);
  cli.Metric("map_waste_packed_bytes", hp_packed.waste);
  cli.Metric("partition_ooms_without_donation", ooms_off);
  cli.Metric("partition_ooms_with_donation", ooms_on);
  cli.Metric("donated_spans_with_donation", donated_on);
  cli.Metric("doorbell_reduction_at_batch8", doorbell_reduction);
  cli.Metric("placement_sync_p99_contiguous", contiguous.max_shard_sync_p99);
  cli.Metric("placement_sync_p99_per_cluster", per_cluster.max_shard_sync_p99);
  return cli.Finish();
}
