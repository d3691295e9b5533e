#include "src/workload/runner.h"

#include <cassert>

#include "src/core/nextgen_malloc.h"

namespace ngx {

std::vector<int> FirstCores(int n) {
  std::vector<int> cores(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    cores[static_cast<std::size_t>(i)] = i;
  }
  return cores;
}

RunResult RunWorkload(Machine& machine, Allocator& alloc, Workload& workload,
                      const RunOptions& options) {
  assert(!options.cores.empty());
  auto threads = workload.MakeThreads(machine, alloc, options.cores, options.seed);
  std::vector<SimThread*> raw;
  raw.reserve(threads.size());
  for (auto& t : threads) {
    raw.push_back(t.get());
  }
  Scheduler::Run(machine, raw);

  if (options.flush_at_end) {
    for (const int c : options.cores) {
      Env env(machine, c);
      alloc.Flush(env);
    }
  }

  RunResult result;
  result.server_cores = options.server_cores;
  result.per_core.reserve(static_cast<std::size_t>(machine.num_cores()));
  for (int c = 0; c < machine.num_cores(); ++c) {
    result.per_core.push_back(machine.core(c).pmu());
  }
  for (const int c : options.cores) {
    result.app += machine.core(c).pmu();
    result.wall_cycles = std::max(result.wall_cycles, machine.core(c).now());
  }
  result.per_server.reserve(options.server_cores.size());
  for (const int c : options.server_cores) {
    result.per_server.push_back(machine.core(c).pmu());
    result.server += result.per_server.back();
  }
  result.alloc_stats = alloc.stats();
  const auto* ngx = dynamic_cast<const NgxAllocator*>(&alloc);
  if (ngx != nullptr) {
    // Elastic-fleet books live on the allocator host side (no telemetry
    // needed): the timeline has no counter representation at all.
    if (const ControlPlane* cp = ngx->control()) {
      result.routing_epochs = cp->routing_epochs();
      result.client_moves = cp->client_moves();
      result.shards_parked = cp->shards_parked();
      result.parked_core_cycles = cp->parked_core_cycles();
      result.fleet_timeline = cp->fleet_timeline();
    }
    result.map_mapped_bytes = ngx->map_mapped_bytes();
    result.map_requested_bytes = ngx->map_requested_bytes();
    result.map_waste_bytes = ngx->map_waste_bytes();
    if (ngx->hugepage_ledger() != nullptr) {
      result.hugepage_backed_bytes = ngx->hugepage_ledger()->backed_bytes();
    }
  }
  if (machine.telemetry().enabled()) {
    const MetricsRegistry& m = machine.telemetry().metrics();
    for (std::size_t s = 0; s < options.server_cores.size(); ++s) {
      const Histogram h =
          m.HistogramTotal("offload.sync_latency", {{"shard", std::to_string(s)}});
      result.shard_sync_latency.push_back(h.Summary());
    }
    result.free_flush_occupancy = m.HistogramTotal("offload.free_batch", {}).Summary();
    result.donated_spans = m.CounterTotal("ngx.donated_spans", {});
    result.rebalance_moves = m.CounterTotal("ngx.rebalance_moves", {});
    result.returned_spans = m.CounterTotal("ngx.returned_spans", {});
    result.inline_donation_fallbacks = m.CounterTotal("ngx.inline_donation_fallbacks", {});
    result.stash_refills = m.CounterTotal("ngx.stash_refills", {});
    result.refill_overlap_cycles = m.CounterTotal("ngx.refill_overlap_cycles", {});
    result.stash_starvation_stalls = m.CounterTotal("ngx.stash_starvation_stalls", {});
    result.stash_recycles = m.CounterTotal("ngx.stash_recycles", {});
    result.server_carve_cycles = m.CounterTotal("ngx.server_carve_cycles", {});
    result.slab_reuses = m.CounterTotal("ngx.slab_reuses", {});
    result.fresh_slab_carves = m.CounterTotal("ngx.slab_fresh", {});
    if (ngx != nullptr) {
      // Per-tenant SLO quantiles (DESIGN.md §15): each labeled tenant's sync
      // round-trip latency summed across every shard it talked to. The
      // series carries only the tenant label, so the subset match cannot
      // also pick up the per-(shard, op) series above.
      for (const std::string& name : ngx->plan().tenant_names) {
        result.tenant_names.push_back(name);
        result.tenant_sync_latency.push_back(
            m.HistogramTotal("offload.sync_latency", {{"tenant", name}}).Summary());
      }
    }
  }
  if (machine.telemetry().recording()) {
    FlightRecorder& rec = machine.telemetry().recorder();
    // One on-demand end-of-run snapshot so every recorder run reports final
    // occupancy even when the periodic cadence is off.
    if (rec.has_snapshot_source()) {
      const HeapSnapshot* end_snap = rec.TakeSnapshot(result.wall_cycles, true);
      if (end_snap != nullptr) {
        result.final_snapshot = *end_snap;
      }
    }
    result.recorder_enabled = true;
    result.traffic_matrix = rec.matrix();
    result.attribution = rec.attribution();
    result.snapshots = rec.snapshots();
  }
  return result;
}

}  // namespace ngx
