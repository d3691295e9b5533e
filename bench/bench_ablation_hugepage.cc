// Ablation: hugepage span packing + hugepage-backed fabric metadata
// (DESIGN.md §16), chasing the documented Table-3 ceiling gap.
//
// EXPERIMENTS.md pins the measured Table-3 result at +1.06% over Mimalloc
// against a ~+1.35% model ceiling, with the residue attributed to effects
// outside the pre-§16 machine model. Two of those effects are dTLB costs the
// paper's own Table 1 motivates removing: every fabric metadata structure
// (stash lines, channel rings, free-batch buffers, heap side tables) sat on
// 4-KiB pages, and with hugepage_spans each 64-KiB span Map burned a whole
// 2-MiB hugepage of window. This bench sweeps {packing, metadata} x {off,
// on} on the Table-3 pipeline operating point and reports, per cell:
// wall cycles, the Table-3 delta vs Mimalloc, machine-wide dTLB misses, the
// per-region dTLB breakdown, and the providers' map-waste honesty metric.
//
// The off/off row doubles as the bit-identity anchor: with hugepage_spans
// back to false it must replay the pinned table3 pipeline hash
// (kTable3PipelineHash in bench_common.h) -- CI asserts both that and the
// dTLB/speedup claims from the JSON.
//
// The "vs mimalloc" column compares every row with Mimalloc on 4-KiB pages,
// so for the hugepage rows it crosses page policies. Mimalloc gains from
// 2-MiB pages too, so a second anchor runs it with hugepage_backing on the
// same machine, and each row also reports its delta against the Mimalloc
// with its own page policy (speedup_vs_same_page_mimalloc_pct).
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/alloc/layout.h"
#include "src/alloc/mimalloc/mi_allocator.h"

namespace {

using namespace ngx;
using namespace ngx::bench;

// The allocator's map books at the end of a run (DESIGN.md §16).
struct MapBooks {
  std::uint64_t mapped = 0;
  std::uint64_t requested = 0;
  std::uint64_t waste = 0;
  std::uint64_t hugepage_backed = 0;  // frames the packing ledger still holds
};

struct Cell {
  std::string label;
  bool hugepage_spans = true;
  bool packing = false;
  bool metadata = false;
  RunResult result;
  MapBooks map;
  std::uint64_t state_hash = 0;
};

RunResult RunMimalloc(bool hugepage_backing) {
  Machine machine(Table3Machine());
  MiConfig mi_cfg;
  mi_cfg.hugepage_backing = hugepage_backing;
  MiAllocator mi(machine, kMiHeapBase, mi_cfg);
  XalancLike workload(XalancTable3Config());
  RunOptions opt;
  opt.cores = {0};
  opt.seed = 7;
  return RunWorkload(machine, mi, workload, opt);
}

void RunCell(const NgxConfig& cfg, Cell* cell) {
  Machine machine(Table3Machine());
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*server_core=*/1);
  XalancLike workload(XalancTable3Config());
  RunOptions opt;
  opt.cores = {0};
  opt.seed = 7;
  opt.server_cores = {1};
  cell->result = RunWorkload(machine, *sys.allocator, workload, opt);
  const NgxAllocator& a = *sys.allocator;
  cell->map.mapped = a.map_mapped_bytes();
  cell->map.requested = a.map_requested_bytes();
  cell->map.waste = a.map_waste_bytes();
  if (a.hugepage_ledger() != nullptr) {
    cell->map.hugepage_backed = a.hugepage_ledger()->backed_bytes();
  }
  sys.fabric->DrainAll();
}

std::uint64_t DtlbMisses(const RunResult& r) {
  return r.app.dtlb_load_misses + r.app.dtlb_store_misses + r.server.dtlb_load_misses +
         r.server.dtlb_store_misses;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli("ablation_hugepage", argc, argv);

  std::cout << "=== Ablation: hugepage span packing + hugepage metadata ===\n\n";

  // Table-3 pipeline operating point (must match bench_table3_nextgen's
  // pipeline rung byte-for-byte so the off-row hash pin means something).
  NgxConfig base = NgxConfig::PaperPrototype();
  base.hugepage_spans = false;
  base.prediction = true;
  base.stash_pipeline = true;
  base.stash_refill_mark = 2;
  base.stash_capacity = 14;

  // Mimalloc anchor for the Table-3 delta (same no-THP machine as table3),
  // and the like-for-like control for the hugepage rows.
  const RunResult r_mi = RunMimalloc(/*hugepage_backing=*/false);
  const double mi_cycles = static_cast<double>(r_mi.wall_cycles);
  std::cerr << "[done] mimalloc anchor\n";
  const RunResult r_mi_2m = RunMimalloc(/*hugepage_backing=*/true);
  const double mi_2m_cycles = static_cast<double>(r_mi_2m.wall_cycles);
  std::cerr << "[done] mimalloc 2-MiB anchor\n";
  const auto same_page_speedup = [&](const Cell& c) {
    const double control = c.hugepage_spans ? mi_2m_cycles : mi_cycles;
    return 100.0 * (control / static_cast<double>(c.result.wall_cycles) - 1.0);
  };

  std::vector<Cell> cells;
  // Bit-identity anchor: the exact pipeline rung (hugepage_spans off).
  cells.push_back({"baseline (no hugepages)", false, false, false, {}, {}, 0});
  // The 2x2 at hugepage_spans = true.
  cells.push_back({"spans only (unpacked)", true, false, false, {}, {}, 0});
  cells.push_back({"spans+packing", true, true, false, {}, {}, 0});
  cells.push_back({"spans+metadata (unpacked)", true, false, true, {}, {}, 0});
  cells.push_back({"spans+packing+metadata", true, true, true, {}, {}, 0});

  for (Cell& c : cells) {
    NgxConfig cfg = base;
    cfg.hugepage_spans = c.hugepage_spans;
    cfg.hugepage_packing = c.packing;
    cfg.hugepage_metadata = c.metadata;
    RunCell(cfg, &c);
    c.state_hash = SimStateHash(c.result);
    std::cerr << "[done] " << c.label << "\n";
  }

  const Cell& off = cells[0];
  const Cell& best = cells.back();

  TextTable t({"configuration", "wall cycles", "vs mimalloc", "dTLB misses",
               "map waste (MiB)", "mmaps"});
  for (const Cell& c : cells) {
    const double wall = static_cast<double>(c.result.wall_cycles);
    t.AddRow({c.label, FormatSci(wall),
              FormatFixed(100.0 * (mi_cycles / wall - 1.0), 2) + "%",
              FormatSci(static_cast<double>(DtlbMisses(c.result))),
              FormatFixed(static_cast<double>(c.map.waste) / (1 << 20), 1),
              FormatSci(static_cast<double>(c.result.alloc_stats.mmap_calls))});
  }
  std::cout << t.ToString() << "\n";

  std::cout << "per-region dTLB walks (walks/lookups, app + server core):\n";
  TextTable rt({"configuration", "heap", "metadata", "freebuf", "channel"});
  for (const Cell& c : cells) {
    const PmuCounters p = c.result.app + c.result.server;
    auto cell = [&p](TlbRegion r) {
      const auto i = static_cast<std::size_t>(r);
      const std::uint64_t walks = p.dtlb_region_walks[i];
      const std::uint64_t lookups = p.dtlb_region_lookups[i];
      return FormatSci(static_cast<double>(walks)) + "/" +
             FormatSci(static_cast<double>(lookups));
    };
    rt.AddRow({c.label, cell(TlbRegion::kHeap), cell(TlbRegion::kMetadata),
               cell(TlbRegion::kFreeBuf), cell(TlbRegion::kChannel)});
  }
  std::cout << rt.ToString() << "\n";

  const bool pinned = off.state_hash == kTable3PipelineHash;
  std::cout << "off-knob final-state hash: " << HashHex(off.state_hash) << " (pinned "
            << (pinned ? "ok" : "MISMATCH") << ")\n";

  const double off_speedup = 100.0 * (mi_cycles / static_cast<double>(off.result.wall_cycles) - 1.0);
  const double best_speedup =
      100.0 * (mi_cycles / static_cast<double>(best.result.wall_cycles) - 1.0);
  std::cout << "Table-3 delta: " << FormatFixed(off_speedup, 2) << "% -> "
            << FormatFixed(best_speedup, 2) << "% with packed hugepage spans + metadata\n";

  std::cout << "\nlike for like (each row vs Mimalloc with its page policy; Mimalloc on "
               "2-MiB pages: "
            << FormatSci(mi_2m_cycles) << " cycles):\n";
  TextTable lt({"configuration", "control", "vs same-page mimalloc"});
  for (const Cell& c : cells) {
    lt.AddRow({c.label, c.hugepage_spans ? "mimalloc 2-MiB" : "mimalloc 4-KiB",
               FormatFixed(same_page_speedup(c), 2) + "%"});
  }
  std::cout << lt.ToString() << "\n";
  std::cout << "Table-3 delta like for like: " << FormatFixed(same_page_speedup(off), 2)
            << "% -> " << FormatFixed(same_page_speedup(best), 2)
            << "% with packed hugepage spans + metadata\n";

  cli.Metric("mimalloc_wall_cycles", r_mi.wall_cycles);
  cli.Metric("mimalloc_2m_wall_cycles", r_mi_2m.wall_cycles);
  cli.Metric("baseline_state_hash", JsonValue(HashHex(off.state_hash)));
  cli.Metric("baseline_replays_pinned_hash", JsonValue(pinned));
  cli.Metric("baseline_speedup_pct", off_speedup);
  cli.Metric("hugepage_speedup_pct", best_speedup);
  cli.Metric("baseline_dtlb_misses", DtlbMisses(off.result));
  cli.Metric("hugepage_dtlb_misses", DtlbMisses(best.result));
  cli.Metric("unpacked_map_waste_bytes", cells[1].map.waste);
  cli.Metric("packed_map_waste_bytes", cells[2].map.waste);

  JsonValue case_rows = JsonValue::Array();
  for (const Cell& c : cells) {
    JsonValue row = JsonValue::Object();
    row.Set("label", JsonValue(c.label));
    row.Set("hugepage_spans", JsonValue(c.hugepage_spans));
    row.Set("hugepage_packing", JsonValue(c.packing));
    row.Set("hugepage_metadata", JsonValue(c.metadata));
    row.Set("wall_cycles", JsonValue(c.result.wall_cycles));
    row.Set("speedup_vs_mimalloc_pct",
            JsonValue(100.0 * (mi_cycles / static_cast<double>(c.result.wall_cycles) - 1.0)));
    row.Set("speedup_vs_same_page_mimalloc_pct", JsonValue(same_page_speedup(c)));
    row.Set("dtlb_misses", JsonValue(DtlbMisses(c.result)));
    row.Set("dtlb_regions", DtlbRegionsJson(c.result.app + c.result.server));
    row.Set("map_mapped_bytes", JsonValue(c.map.mapped));
    row.Set("map_requested_bytes", JsonValue(c.map.requested));
    row.Set("map_waste_bytes", JsonValue(c.map.waste));
    row.Set("hugepage_backed_bytes", JsonValue(c.map.hugepage_backed));
    row.Set("mmap_calls", JsonValue(c.result.alloc_stats.mmap_calls));
    row.Set("state_hash", JsonValue(HashHex(c.state_hash)));
    case_rows.Push(std::move(row));
  }
  cli.Set("cases", std::move(case_rows));

  return cli.Finish();
}
