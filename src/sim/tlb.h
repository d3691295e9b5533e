// Two-level data TLB.
//
// L1 has separate arrays for 4 KiB and 2 MiB translations (as real cores do);
// L2 is unified. A miss in both levels triggers a page walk with a fixed cost
// and increments the dTLB-miss counter the paper's Table 1 reports.
#ifndef NGX_SRC_SIM_TLB_H_
#define NGX_SRC_SIM_TLB_H_

#include <cstdint>

#include "src/sim/cache.h"
#include "src/sim/types.h"

namespace ngx {

struct TlbConfig {
  std::uint32_t l1_small_entries = 64;
  std::uint32_t l1_small_ways = 4;
  std::uint32_t l1_huge_entries = 32;
  std::uint32_t l1_huge_ways = 4;
  std::uint32_t l2_entries = 1024;
  std::uint32_t l2_ways = 8;
  std::uint32_t l2_hit_latency = 7;    // extra cycles on an L1-TLB miss / L2 hit
  std::uint32_t walk_latency = 120;    // extra cycles for a full page walk
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  struct Result {
    std::uint32_t extra_cycles = 0;  // beyond a first-level hit (which is free)
    bool l1_miss = false;
    bool walk = false;  // missed both levels
  };

  // Translates the page containing `vaddr`, backed by `page_bytes` pages.
  Result Lookup(Addr vaddr, std::uint64_t page_bytes);

  const TlbConfig& config() const { return config_; }

 private:
  TlbConfig config_;
  SetAssoc l1_small_;
  SetAssoc l1_huge_;
  SetAssoc l2_;
};

}  // namespace ngx

#endif  // NGX_SRC_SIM_TLB_H_
