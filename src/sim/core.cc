#include "src/sim/core.h"

#include <cmath>

namespace ngx {

CoreConfig CoreConfig::NearMemory() {
  CoreConfig c;
  c.type = CoreType::kNearMemory;
  c.cpi = 1.0;
  c.load_overlap = 0.0;
  c.store_overlap = 0.0;
  c.l1d = CacheConfig{16 * 1024, 4, 2};
  c.has_l2 = false;
  c.tlb.l1_small_entries = 32;
  c.tlb.l1_huge_entries = 16;
  c.tlb.l2_entries = 256;
  c.mem_latency_override = 60;  // sits next to the memory controller
  return c;
}

CoreConfig CoreConfig::InOrder() {
  CoreConfig c;
  c.type = CoreType::kInOrder;
  c.cpi = 1.0;
  c.load_overlap = 0.0;
  c.store_overlap = 0.0;
  return c;
}

Core::Core(const CoreConfig& config, int id)
    : config_(config),
      id_(id),
      l1d_(config.l1d),
      l2_(config.has_l2 ? std::make_unique<Cache>(config.l2) : nullptr),
      tlb_(config.tlb) {}

void Core::AdvanceTo(std::uint64_t t) {
  if (t > cycles_) {
    cycles_ = t;
    pmu_.cycles = cycles_;
  }
}

void Core::AddCycles(double c) {
  frac_ += c;
  const double whole = std::floor(frac_);
  cycles_ += static_cast<std::uint64_t>(whole);
  frac_ -= whole;
  pmu_.cycles = cycles_;
  if (InAllocScope()) {
    alloc_frac_ += c;
    const double alloc_whole = std::floor(alloc_frac_);
    pmu_.alloc_cycles += static_cast<std::uint64_t>(alloc_whole);
    alloc_frac_ -= alloc_whole;
  }
}

void Core::Work(std::uint64_t n) {
  NoteInstructions(n);
  AddCycles(static_cast<double>(n) * config_.cpi);
}

std::uint64_t Core::ChargeAccess(AccessType type, std::uint64_t raw) {
  double charged = static_cast<double>(raw);
  const bool ooo = config_.type == CoreType::kOutOfOrder;
  if (ooo && type == AccessType::kLoad) {
    charged = 1.0 + (charged - 1.0) * (1.0 - config_.load_overlap);
  } else if (ooo && type == AccessType::kStore) {
    charged = 1.0 + (charged - 1.0) * (1.0 - config_.store_overlap);
  }
  // Atomic RMWs serialize the pipeline on every core type: charged in full.
  AddCycles(charged);
  return static_cast<std::uint64_t>(charged);
}

}  // namespace ngx
