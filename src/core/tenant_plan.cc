#include "src/core/tenant_plan.h"

#include <algorithm>

#include "src/sim/check.h"

namespace ngx {

TenantPlan ResolveTenantPlan(const NgxConfig& config, int num_cores, int cluster_cores,
                             const std::vector<int>& server_cores) {
  const int nshards = server_cores.empty() ? 1 : static_cast<int>(server_cores.size());
  TenantPlan plan;
  CoreContract global;
  global.stash_capacity = config.stash_capacity;
  global.refill_mark = config.stash_refill_mark;
  global.free_batch = config.free_batch;
  plan.cores.assign(static_cast<std::size_t>(num_cores), global);
  plan.shards.assign(static_cast<std::size_t>(nshards),
                     ShardWatermarks{config.span_low_mark, config.span_high_mark});
  // Shard-scoped traits (watermarks) come from the tenants homed on the
  // shard; two tenants meeting on one shard must agree.
  std::vector<int> mark_owner(static_cast<std::size_t>(nshards), -1);
  for (const TenantSpec& spec : config.tenants) {
    NGX_CHECK(!spec.name.empty(), "tenant needs a name (it labels telemetry series)");
    for (const std::string& seen : plan.tenant_names) {
      NGX_CHECK(seen != spec.name, "duplicate tenant name");
    }
    const int t_idx = static_cast<int>(plan.tenant_names.size());
    plan.tenant_names.push_back(spec.name);
    const TenantTraits& t = spec.traits;
    // The pipeline's stash layout is [half 0][half 1][spill]: a capacity
    // override below two halves cannot host the protocol's publish word
    // dance, so it is rejected rather than silently clamped.
    NGX_CHECK(!config.stash_pipeline || t.stash_capacity == TenantTraits::kInherit ||
                  t.stash_capacity >= 2 * kPipeHalfCap,
              "tenant stash capacity below the pipeline's two-half minimum");
    NGX_CHECK(t.stash_capacity == TenantTraits::kInherit || t.stash_capacity >= 1,
              "tenant stash capacity must be nonzero");
    NGX_CHECK(t.free_batch == TenantTraits::kInherit ||
                  (t.free_batch >= 1 && t.free_batch <= kNgxRingCapacity),
              "tenant free_batch must fit in one async ring");
    const bool has_low = t.span_low_mark != TenantTraits::kInherit64;
    const bool has_high = t.span_high_mark != TenantTraits::kInherit64;
    NGX_CHECK(has_low == has_high,
              "tenant watermark overrides must set both marks or neither");
    if (has_low) {
      NGX_CHECK(config.span_low_mark > 0,
                "tenant watermark overrides need the global rebalance protocol on");
      NGX_CHECK(t.span_high_mark > t.span_low_mark,
                "tenant span_high_mark must exceed span_low_mark");
    }
    NGX_CHECK(t.home_shard < nshards, "tenant home_shard out of range");
    for (const int c : spec.cores) {
      NGX_CHECK(c >= 0 && c < num_cores, "tenant core out of range");
      NGX_CHECK(std::find(server_cores.begin(), server_cores.end(), c) == server_cores.end(),
                "tenant claims a shard server core");
      CoreContract& core = plan.cores[static_cast<std::size_t>(c)];
      NGX_CHECK(core.tenant < 0, "core claimed by two tenants");
      core.tenant = t_idx;
      if (t.stash_capacity != TenantTraits::kInherit) {
        core.stash_capacity = t.stash_capacity;
      }
      if (t.stash_refill_mark != TenantTraits::kInherit) {
        core.refill_mark = t.stash_refill_mark;
      }
      if (t.free_batch != TenantTraits::kInherit) {
        core.free_batch = t.free_batch;
      }
      // Home resolution: an explicit pin wins; the NUMA-local preset walks
      // the cluster topology for a shard whose server core shares this
      // client's cluster (first match, deterministic).
      int home = t.home_shard;
      if (home < 0 && t.preset == TenantPreset::kNumaLocal && cluster_cores > 0) {
        for (std::size_t s = 0; s < server_cores.size(); ++s) {
          if (server_cores[s] / cluster_cores == c / cluster_cores) {
            home = static_cast<int>(s);
            break;
          }
        }
      }
      core.home_shard = home;
      // Shard-scoped traits bind to the resolved home, or to the core's
      // static route when unpinned (the shard its mallocs reach under
      // static_by_client).
      const std::size_t hs = static_cast<std::size_t>(home >= 0 ? home : c % nshards);
      if (has_low) {
        NGX_CHECK(mark_owner[hs] < 0 || (plan.shards[hs].low == t.span_low_mark &&
                                         plan.shards[hs].high == t.span_high_mark),
                  "tenants sharing a shard bind conflicting watermarks");
        plan.shards[hs] = ShardWatermarks{t.span_low_mark, t.span_high_mark};
        mark_owner[hs] = t_idx;
      }
    }
  }
  if (config.stash_pipeline) {
    // [half 0][half 1][spill stack]: the per-half capacity is the line, not
    // the configured capacity -- refill batches beyond one line would cost a
    // transfer per extra line and hand out ever-colder server blocks. The
    // rest of a core's capacity becomes its client-only spill stack, which
    // holds recycled frees, never server fills, so its depth stretches no
    // refill.
    NGX_CHECK(config.stash_capacity > 0, "pipelined stash needs a nonzero capacity");
    for (CoreContract& core : plan.cores) {
      core.pipe_cap = std::min(core.stash_capacity, kPipeHalfCap);
      core.spill_depth =
          core.stash_capacity > 2 * kPipeHalfCap ? core.stash_capacity - 2 * kPipeHalfCap : 0;
    }
  }
  return plan;
}

}  // namespace ngx
