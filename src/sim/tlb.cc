#include "src/sim/tlb.h"

namespace ngx {

Tlb::Tlb(const TlbConfig& config)
    : config_(config),
      l1_small_(config.l1_small_entries, config.l1_small_ways),
      l1_huge_(config.l1_huge_entries, config.l1_huge_ways),
      l2_(config.l2_entries, config.l2_ways) {}

Tlb::Result Tlb::Lookup(Addr vaddr, std::uint64_t page_bytes) {
  Result r;
  const bool huge = page_bytes == kHugePageBytes;
  // Distinguish huge/small VPNs in the unified L2 with a high tag bit.
  const std::uint64_t vpn = vaddr / page_bytes;
  const std::uint64_t l2_vpn = vpn | (huge ? (1ull << 57) : 0);

  SetAssoc& l1 = huge ? l1_huge_ : l1_small_;
  if (l1.Hit(vpn) != SetAssoc::kNone) {
    return r;
  }
  r.l1_miss = true;
  if (l2_.Hit(l2_vpn) != SetAssoc::kNone) {
    r.extra_cycles = config_.l2_hit_latency;
  } else {
    r.walk = true;
    r.extra_cycles = config_.l2_hit_latency + config_.walk_latency;
    l2_.Fill(l2_.Victim(l2_vpn), l2_vpn);
  }
  l1.Fill(l1.Victim(vpn), vpn);
  return r;
}

}  // namespace ngx
