#include "src/core/tenant_plan.h"

#include <algorithm>

#include "src/sim/check.h"

namespace ngx {

TenantPlan ResolveTenantPlan(const NgxConfig& config, int num_cores,
                             const std::vector<int>& server_cores) {
  TenantPlan plan;
  CoreContract global;
  global.free_batch = config.free_batch;
  plan.cores.assign(static_cast<std::size_t>(num_cores), global);
  for (const TenantSpec& spec : config.tenants) {
    NGX_CHECK(!spec.name.empty(), "tenant needs a name (it labels telemetry series)");
    for (const std::string& seen : plan.tenant_names) {
      NGX_CHECK(seen != spec.name, "duplicate tenant name");
    }
    const int t_idx = static_cast<int>(plan.tenant_names.size());
    plan.tenant_names.push_back(spec.name);
    NGX_CHECK(spec.free_batch == TenantSpec::kInherit ||
                  (spec.free_batch >= 1 && spec.free_batch <= kNgxRingCapacity),
              "tenant free_batch must fit in one async ring");
    for (const int c : spec.cores) {
      NGX_CHECK(c >= 0 && c < num_cores, "tenant core out of range");
      NGX_CHECK(std::find(server_cores.begin(), server_cores.end(), c) == server_cores.end(),
                "tenant claims a shard server core");
      CoreContract& core = plan.cores[static_cast<std::size_t>(c)];
      NGX_CHECK(core.tenant < 0, "core claimed by two tenants");
      core.tenant = t_idx;
      if (spec.free_batch != TenantSpec::kInherit) {
        core.free_batch = spec.free_batch;
      }
    }
  }
  if (config.stash_pipeline) {
    // [half 0][half 1][spill stack]: the per-half capacity is the line, not
    // the configured capacity -- refill batches beyond one line would cost a
    // transfer per extra line and hand out ever-colder server blocks. The
    // rest of the capacity becomes each core's client-only spill stack,
    // which holds recycled frees, never server fills, so its depth stretches
    // no refill.
    NGX_CHECK(config.stash_capacity > 0, "pipelined stash needs a nonzero capacity");
    plan.pipe_cap = std::min(config.stash_capacity, kPipeHalfCap);
    plan.spill_depth =
        config.stash_capacity > 2 * kPipeHalfCap ? config.stash_capacity - 2 * kPipeHalfCap : 0;
  }
  return plan;
}

}  // namespace ngx
