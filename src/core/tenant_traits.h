// Per-tenant allocator contracts (DESIGN.md §15).
//
// The fabric serves many applications at once, but one global NgxConfig
// means every tenant gets the same stash depth, free batching and watermark
// spans -- and on a shared shard a throughput tenant's batched frees can
// legally run the server clock ahead of a latency tenant's sync refill.
// TenantTraits is the contract layer: a NitroHeap-style preset
// (NH_LOW_LATENCY / NH_THROUGHPUT / ... in SNIPPETS.md Snippet 1 terms)
// plus explicit per-knob overrides, resolved once at client registration
// into per-core effective knobs and a QoS lane for the rings the tenants
// share. Fields left at kInherit fall back to the global NgxConfig value,
// so an all-default tenant list is behaviourally the no-tenant build.
#ifndef NGX_SRC_CORE_TENANT_TRAITS_H_
#define NGX_SRC_CORE_TENANT_TRAITS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/offload/channel.h"
#include "src/sim/check.h"

namespace ngx {

// Preset contracts in the style of NitroHeap's OR-combinable mallocx flags:
// each names the service level an application asks of its allocator room.
enum class TenantPreset : std::uint8_t {
  kDefault,     // the global NgxConfig contract
  kLowLatency,  // NH_LOW_LATENCY: sync path first, unbatched frees
  kThroughput,  // NH_THROUGHPUT: deep free batches on the bulk lane
  kEphemeral,   // NH_EPHEMERAL: deep client-side stash recycling
  kNumaLocal,   // NH_NUMA_LOCAL: pin the home shard into the client's cluster
};

inline bool ParseTenantPreset(std::string_view name, TenantPreset* out) {
  if (name == "default") {
    *out = TenantPreset::kDefault;
  } else if (name == "low_latency") {
    *out = TenantPreset::kLowLatency;
  } else if (name == "throughput") {
    *out = TenantPreset::kThroughput;
  } else if (name == "ephemeral") {
    *out = TenantPreset::kEphemeral;
  } else if (name == "numa_local") {
    *out = TenantPreset::kNumaLocal;
  } else {
    return false;
  }
  return true;
}

inline const char* TenantPresetName(TenantPreset p) {
  switch (p) {
    case TenantPreset::kDefault:
      return "default";
    case TenantPreset::kLowLatency:
      return "low_latency";
    case TenantPreset::kThroughput:
      return "throughput";
    case TenantPreset::kEphemeral:
      return "ephemeral";
    case TenantPreset::kNumaLocal:
      return "numa_local";
  }
  return "unknown";
}

// One tenant's contract. Every knob defaults to "inherit the global
// NgxConfig value"; presets fill only the knobs their contract implies, and
// explicit assignments made after TraitsFromPreset win over the preset.
struct TenantTraits {
  static constexpr std::uint32_t kInherit = 0xffffffffu;
  static constexpr std::uint64_t kInherit64 = ~0ull;

  TenantPreset preset = TenantPreset::kDefault;
  // Ring lane for this tenant's fabric traffic (only consulted when
  // NgxConfig::lane_quantum > 0; classification alone never changes timing).
  QosLane lane = QosLane::kNormal;
  // Client-side stash inventory and refill trigger (prediction/pipeline).
  std::uint32_t stash_capacity = kInherit;
  std::uint32_t stash_refill_mark = kInherit;
  // Remote frees buffered per (client, shard) before one ring doorbell.
  std::uint32_t free_batch = kInherit;
  // Watermark spans for the shard this tenant's clients home on.
  std::uint64_t span_low_mark = kInherit64;
  std::uint64_t span_high_mark = kInherit64;
  // Cluster placement: route this tenant's mallocs to a fixed shard
  // (>= 0 pins; -1 lets the routing policy decide). kNumaLocal resolves
  // this at registration from the machine's cluster topology.
  int home_shard = -1;
};

inline TenantTraits TraitsFromPreset(TenantPreset p) {
  TenantTraits t;
  t.preset = p;
  switch (p) {
    case TenantPreset::kDefault:
      break;
    case TenantPreset::kLowLatency:
      // Sync refills must never sit behind anyone's batch: highest lane,
      // unbatched frees (one entry per doorbell keeps each drain window
      // short).
      t.lane = QosLane::kLatency;
      t.free_batch = 1;
      break;
    case TenantPreset::kThroughput:
      // Amortize doorbells hard and accept drain-window latency: deep free
      // batches admitted on the bulk lane in bounded quanta.
      t.lane = QosLane::kBulk;
      t.free_batch = 16;
      break;
    case TenantPreset::kEphemeral:
      // Short-lived objects recycle client-side: a deep spill stash keeps
      // the free->malloc turnaround off the fabric entirely, and a modest
      // free batch drains what does escape.
      t.stash_capacity = 32;
      t.free_batch = 8;
      break;
    case TenantPreset::kNumaLocal:
      // Placement-only contract: the home shard is pinned to the client's
      // cluster at registration (home_shard stays -1 here because the
      // cluster topology lives in MachineConfig, not in the traits).
      break;
  }
  return t;
}

inline TenantTraits MakeTenantTraits(std::string_view preset_name) {
  TenantPreset p;
  NGX_CHECK(ParseTenantPreset(preset_name, &p), "unknown tenant preset");
  return TraitsFromPreset(p);
}

// A named tenant bound to the client cores running under its contract.
// Cores not claimed by any tenant run the implicit default tenant (global
// NgxConfig knobs, normal lane, no telemetry label).
struct TenantSpec {
  std::string name;
  TenantTraits traits;
  std::vector<int> cores;
};

}  // namespace ngx

#endif  // NGX_SRC_CORE_TENANT_TRAITS_H_
