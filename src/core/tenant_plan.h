// The tenant plan (DESIGN.md §15): NgxConfig::tenants resolved once, before
// anything is sized from it, into plain per-core contracts, plus the
// pipelined stash split every core shares. Cores no tenant claims carry the
// global free_batch, so with no tenants every consumer computes exactly what
// the global knobs say.
#ifndef NGX_SRC_CORE_TENANT_PLAN_H_
#define NGX_SRC_CORE_TENANT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/nextgen_config.h"

namespace ngx {

// Entries per pipelined stash half: one 64-byte line holds the publish word
// and seven block pointers.
inline constexpr std::uint32_t kPipeHalfCap = 7;

// One core's effective knobs.
struct CoreContract {
  int tenant = -1;  // index into TenantPlan::tenant_names; -1 = the implicit default tenant
  std::uint32_t free_batch = 0;
};

struct TenantPlan {
  std::vector<std::string> tenant_names;  // config order
  std::vector<CoreContract> cores;        // one per machine core
  // Pipelined stash only (0 otherwise): entries used per half,
  // min(stash_capacity, kPipeHalfCap), and the client-only spill depth, the
  // capacity beyond the two halves.
  std::uint32_t pipe_cap = 0;
  std::uint32_t spill_depth = 0;
};

// Resolves config.tenants for a machine of `num_cores` cores whose shard
// servers run on `server_cores` (empty for the inline allocator). NGX_CHECKs
// every malformed tenant: the hot paths index the plan without re-checking
// anything.
TenantPlan ResolveTenantPlan(const NgxConfig& config, int num_cores,
                             const std::vector<int>& server_cores);

}  // namespace ngx

#endif  // NGX_SRC_CORE_TENANT_PLAN_H_
