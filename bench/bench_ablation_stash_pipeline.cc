// Ablation for the pipelined double-buffered stash (DESIGN.md §9).
//
// Three rungs on the same ladder:
//  * sync-only: every malloc is a synchronous kMalloc round trip;
//  * kMallocBatch: prediction batches same-class runs into the single-stack
//    stash, but every refill is still a blocking round trip on the client;
//  * pipeline: the refill becomes a non-blocking kRefillStash the server
//    fills into the inactive half during its drain window and publishes
//    with one release-store -- the client keeps allocating underneath.
//
// The sweep crosses refill mark x allocation intensity, each pipeline row at
// capacity 2 * kPipeHalfCap = 14 (the two halves are all a pipelined stash
// holds), and reports the two claims the pipeline makes: the sync-residue
// share (cold mallocs that still pay a round trip) falls below the
// kMallocBatch baseline, and a whole refill batch costs the client at most
// ONE stash line transfer (the flip's acquire-read) -- flips never exceed
// refills.
#include "bench/bench_common.h"

using namespace ngx;
using namespace ngx::bench;

namespace {

enum class Mode { kSyncOnly, kBatch, kPipeline };

struct Row {
  std::string config;
  std::uint32_t intensity = 0;
  std::uint64_t wall = 0;
  std::uint64_t mallocs = 0;
  std::uint64_t sync_mallocs = 0;
  std::uint64_t stash_hits = 0;
  std::uint64_t refills = 0;
  std::uint64_t flips = 0;
  std::uint64_t recycles = 0;
  std::uint64_t stalls = 0;
  std::uint64_t overlap_cycles = 0;

  double SyncResiduePct() const {
    const double ops = static_cast<double>(stash_hits + sync_mallocs);
    return ops > 0 ? 100.0 * static_cast<double>(sync_mallocs) / ops : 0.0;
  }
  // Stash line transfers per refill batch: each flip acquire-reads exactly
  // one line; every pop after it hits that warmed line.
  double FlipsPerRefill() const {
    return refills > 0 ? static_cast<double>(flips) / static_cast<double>(refills) : 0.0;
  }
};

Row RunCase(BenchCli& cli, Mode mode, std::uint32_t mark, std::uint32_t capacity,
            std::uint32_t intensity) {
  NgxConfig cfg;
  cfg.prediction = mode != Mode::kSyncOnly;
  cfg.stash_pipeline = mode == Mode::kPipeline;
  cfg.stash_refill_mark = mark;
  if (capacity > 0) {
    cfg.stash_capacity = capacity;
  }
  XalancConfig wl_cfg = XalancBenchConfig();
  wl_cfg.documents = 4;
  wl_cfg.temp_alloc_percent = intensity;
  const XalancRun run = RunXalanc(MachineConfig::ScaledWorkstation(2),
                                  cli.TelemetrySetup(/*allow_trace=*/false), NextGen{cfg}, wl_cfg);
  const RunResult& r = run.result;
  const NgxAllocator& alloc = *run.system.allocator;
  run.system.fabric->DrainAll();
  cli.Capture(*run.machine);
  Row out;
  switch (mode) {
    case Mode::kSyncOnly:
      out.config = "sync-only";
      break;
    case Mode::kBatch:
      out.config = "kMallocBatch";
      break;
    case Mode::kPipeline:
      out.config = "pipeline mark=" + std::to_string(mark) + " cap=" + std::to_string(capacity);
      break;
  }
  out.intensity = intensity;
  out.wall = r.wall_cycles;
  out.mallocs = r.alloc_stats.mallocs;
  out.sync_mallocs = alloc.sync_mallocs();
  out.stash_hits = alloc.stash_hits();
  out.refills = alloc.stash_refills();
  out.flips = alloc.stash_flips();
  out.recycles = alloc.stash_recycled_frees();
  out.stalls = alloc.stash_starvation_stalls();
  out.overlap_cycles = alloc.refill_overlap_cycles();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_stash_pipeline", argc, argv);
  std::cout << "=== Ablation (DESIGN.md 9): pipelined double-buffered stash ===\n\n";

  std::vector<Row> rows;
  std::size_t batch_row_at[2] = {0, 0};
  std::size_t best_pipe_at[2] = {0, 0};
  const std::uint32_t intensities[2] = {8, 24};
  for (int i = 0; i < 2; ++i) {
    const std::uint32_t intensity = intensities[i];
    rows.push_back(RunCase(cli, Mode::kSyncOnly, 0, 0, intensity));
    batch_row_at[i] = rows.size();
    rows.push_back(RunCase(cli, Mode::kBatch, 0, 0, intensity));
    best_pipe_at[i] = rows.size();
    for (const std::uint32_t mark : {1u, 2u, 4u}) {
      rows.push_back(RunCase(cli, Mode::kPipeline, mark, 2 * kPipeHalfCap, intensity));
      if (rows.back().wall < rows[best_pipe_at[i]].wall) {
        best_pipe_at[i] = rows.size() - 1;
      }
    }
  }

  TextTable t({"configuration", "alloc%", "app wall", "sync residue", "refills", "flips/refill",
               "recycles", "stalls", "overlap cyc"});
  for (const Row& r : rows) {
    t.AddRow({r.config, FormatInt(r.intensity), FormatSci(static_cast<double>(r.wall)),
              FormatFixed(r.SyncResiduePct(), 2) + "%", FormatInt(r.refills),
              r.refills > 0 ? FormatFixed(r.FlipsPerRefill(), 3) : "-", FormatInt(r.recycles),
              FormatInt(r.stalls), FormatSci(static_cast<double>(r.overlap_cycles))});
  }
  std::cout << t.ToString() << "\n";

  JsonValue json_rows = JsonValue::Array();
  for (const Row& r : rows) {
    JsonValue o = JsonValue::Object();
    o.Set("config", JsonValue(r.config));
    o.Set("temp_alloc_percent", JsonValue(static_cast<std::uint64_t>(r.intensity)));
    o.Set("wall_cycles", JsonValue(r.wall));
    o.Set("mallocs", JsonValue(r.mallocs));
    o.Set("sync_mallocs", JsonValue(r.sync_mallocs));
    o.Set("stash_hits", JsonValue(r.stash_hits));
    o.Set("stash_refills", JsonValue(r.refills));
    o.Set("stash_flips", JsonValue(r.flips));
    o.Set("recycled_frees", JsonValue(r.recycles));
    o.Set("starvation_stalls", JsonValue(r.stalls));
    o.Set("overlap_cycles", JsonValue(r.overlap_cycles));
    json_rows.Push(o);
  }
  cli.Set("configs", json_rows);

  // Headline claims, at the default intensity.
  const Row& batch = rows[batch_row_at[0]];
  const Row& pipe = rows[best_pipe_at[0]];
  std::cout << "best pipeline config: " << pipe.config << "\n"
            << "sync residue: " << FormatFixed(batch.SyncResiduePct(), 2) << "% (kMallocBatch) -> "
            << FormatFixed(pipe.SyncResiduePct(), 2) << "% (pipeline)\n"
            << "stash line transfers per refill batch: " << FormatFixed(pipe.FlipsPerRefill(), 3)
            << " (<= 1: one acquire-read publishes the whole batch)\n"
            << "server fill cycles hidden behind client work: "
            << FormatSci(static_cast<double>(pipe.overlap_cycles)) << "\n"
            << "app speedup over kMallocBatch: "
            << FormatFixed(100.0 * (static_cast<double>(batch.wall) / pipe.wall - 1.0), 2)
            << "%\n";

  cli.Metric("batch_sync_residue_pct", batch.SyncResiduePct());
  cli.Metric("pipeline_sync_residue_pct", pipe.SyncResiduePct());
  cli.Metric("pipeline_flips_per_refill", pipe.FlipsPerRefill());
  cli.Metric("pipeline_overlap_cycles", pipe.overlap_cycles);
  cli.Metric("pipeline_starvation_stalls", pipe.stalls);
  cli.Metric("pipeline_speedup_over_batch_pct",
             100.0 * (static_cast<double>(batch.wall) / pipe.wall - 1.0));
  return cli.Finish();
}
