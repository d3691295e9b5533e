// The tenant plan (DESIGN.md §15): NgxConfig::tenants resolved once, before
// anything is sized from it, into plain per-core contracts and per-shard
// watermarks. Cores no tenant claims carry the global NgxConfig values and
// shards no tenant is homed on carry the global marks, so with no tenants
// every consumer (stash layout, free batching, refill marks, watermarks)
// computes exactly what the global knobs say.
#ifndef NGX_SRC_CORE_TENANT_PLAN_H_
#define NGX_SRC_CORE_TENANT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/nextgen_config.h"

namespace ngx {

// Entries per pipelined stash half: one 64-byte line holds the publish word
// and seven block pointers. Part of the config contract: a per-tenant
// stash_capacity override must cover both halves, 2 * kPipeHalfCap.
inline constexpr std::uint32_t kPipeHalfCap = 7;

// One core's effective knobs.
struct CoreContract {
  int tenant = -1;  // index into TenantPlan::tenant_names; -1 = the implicit default tenant
  std::uint32_t stash_capacity = 0;
  std::uint32_t refill_mark = 0;
  std::uint32_t free_batch = 0;
  // Pipelined stash only (0 otherwise): entries used per half,
  // min(stash_capacity, kPipeHalfCap), and the client-only spill depth, the
  // capacity beyond the two halves.
  std::uint32_t pipe_cap = 0;
  std::uint32_t spill_depth = 0;
  int home_shard = -1;  // shard this core's mallocs are pinned to; -1 = the routing policy picks
};

struct ShardWatermarks {
  std::uint64_t low = 0;
  std::uint64_t high = 0;
};

struct TenantPlan {
  std::vector<std::string> tenant_names;  // config order
  std::vector<CoreContract> cores;        // one per machine core
  std::vector<ShardWatermarks> shards;    // one per shard
};

// Resolves config.tenants for a machine of `num_cores` cores grouped in
// clusters of `cluster_cores` (0 = no clusters), whose shard servers run on
// `server_cores` (empty for the inline allocator, which has one shard).
// NGX_CHECKs every malformed override: the hot paths index the plan without
// re-checking anything.
TenantPlan ResolveTenantPlan(const NgxConfig& config, int num_cores, int cluster_cores,
                             const std::vector<int>& server_cores);

}  // namespace ngx

#endif  // NGX_SRC_CORE_TENANT_PLAN_H_
