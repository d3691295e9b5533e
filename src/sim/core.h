// Per-core clock, private caches/TLB, and the timing model that shapes raw
// memory latencies by core type (out-of-order, in-order, near-memory).
//
// The paper's Section 3.2 asks what kind of "room" the allocator should get:
// another big OoO core, or a small in-order near-memory core. CoreConfig
// captures exactly those choices.
#ifndef NGX_SRC_SIM_CORE_H_
#define NGX_SRC_SIM_CORE_H_

#include <memory>
#include <optional>

#include "src/sim/cache.h"
#include "src/sim/pmu.h"
#include "src/sim/tlb.h"
#include "src/sim/types.h"

namespace ngx {

enum class CoreType {
  kOutOfOrder,   // big core: overlaps much of the miss latency
  kInOrder,      // small core: every access stalls for its full latency
  kNearMemory,   // in-order core placed next to DRAM: tiny cache, fast memory
};

struct CoreConfig {
  CoreType type = CoreType::kOutOfOrder;
  double cpi = 0.5;             // cycles per non-memory instruction
  double load_overlap = 0.60;   // fraction of load latency hidden (OoO only)
  double store_overlap = 0.85;  // fraction of store latency hidden (OoO only)
  CacheConfig l1d{32 * 1024, 8, kCacheLineBytes, ReplacementKind::kLru, 4};
  bool has_l2 = true;
  CacheConfig l2{256 * 1024, 8, kCacheLineBytes, ReplacementKind::kLru, 12};
  TlbConfig tlb;
  // If nonzero, overrides the machine DRAM latency for this core's misses
  // (used by near-memory cores).
  std::uint64_t mem_latency_override = 0;

  // A small single-issue in-order integer core placed near memory (3.2).
  static CoreConfig NearMemory();
  // An in-order variant of the default core (same caches, no overlap).
  static CoreConfig InOrder();
};

class Core {
 public:
  Core(const CoreConfig& config, int id);

  int id() const { return id_; }
  const CoreConfig& config() const { return config_; }

  std::uint64_t now() const { return cycles_; }
  void AdvanceTo(std::uint64_t t);
  void AddCycles(double c);

  // Charges `n` non-memory instructions.
  void Work(std::uint64_t n);

  // Allocator-scope attribution: while the depth is positive, charged cycles
  // and instructions are also counted into pmu().alloc_*.
  void EnterAllocScope() { ++alloc_depth_; }
  void ExitAllocScope() { --alloc_depth_; }
  bool InAllocScope() const { return alloc_depth_ > 0; }

  // Notes `n` instructions issued (memory instructions are noted by the
  // Machine on access).
  void NoteInstructions(std::uint64_t n) {
    pmu_.instructions += n;
    if (InAllocScope()) {
      pmu_.alloc_instructions += n;
    }
  }

  // Charges a memory instruction whose raw (unshaped) latency is `raw`.
  // Returns the charged cycles.
  std::uint64_t ChargeAccess(AccessType type, std::uint64_t raw);

  PmuCounters& pmu() { return pmu_; }
  const PmuCounters& pmu() const { return pmu_; }

  Cache& l1d() { return l1d_; }
  Cache* l2() { return l2_ ? l2_.get() : nullptr; }
  Tlb& tlb() { return tlb_; }
  bool has_l2() const { return l2_ != nullptr; }

 private:
  CoreConfig config_;
  int id_;
  std::uint64_t cycles_ = 0;
  double frac_ = 0.0;  // sub-cycle accumulator
  double alloc_frac_ = 0.0;
  int alloc_depth_ = 0;
  PmuCounters pmu_;
  Cache l1d_;
  std::unique_ptr<Cache> l2_;
  Tlb tlb_;
};

}  // namespace ngx

#endif  // NGX_SRC_SIM_CORE_H_
