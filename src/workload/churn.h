// Steady-state workloads: Churn (per-thread phases of random replacement
// within a live working set) and LarsonLike (server-style: slots shared
// across threads, so frees frequently target blocks another thread
// allocated).
#ifndef NGX_SRC_WORKLOAD_CHURN_H_
#define NGX_SRC_WORKLOAD_CHURN_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/sim/check.h"
#include "src/workload/size_dist.h"
#include "src/workload/workload.h"

namespace ngx {

// One churn phase: fill a working set of `live_blocks` blocks, then `ops`
// times free a random block and allocate its replacement, then drain.
struct ChurnConfig {
  std::uint32_t live_blocks = 2000;
  std::uint32_t ops = 20000;
  std::uint64_t min_size = 16;
  std::uint64_t max_size = 1024;
  std::uint32_t touch_bytes = 48;  // written into every new block
  std::uint32_t read_bytes = 16;   // read from the dying block first (0 = none)
  std::uint32_t work = 30;         // app instructions per replacement
};

// The order in which a phase frees its working set once its ops are done,
// one free per allocator call like every other call. The next phase then
// starts from an empty set with its op count reset.
enum class ChurnDrain {
  // Working-set order: the fill order, with each replacement in its dying
  // block's place.
  kFillOrder,
  // Newest first: the reverse of that order.
  kNewestFirst,
};

// Thread i runs phases[i] in order (threads past the end run the last list)
// with seed `seed + 31*i`. A failed malloc ends the thread with its blocks
// still held; the allocator counts the failure.
class Churn : public Workload {
 public:
  // Every thread runs `config` once and drains in fill order.
  explicit Churn(const ChurnConfig& config = {})
      : Churn(std::vector<std::vector<ChurnConfig>>{{config}}, ChurnDrain::kFillOrder) {}
  Churn(std::vector<std::vector<ChurnConfig>> phases, ChurnDrain drain)
      : phases_(std::move(phases)), drain_(drain) {
    NGX_CHECK(!phases_.empty(), "Churn needs at least one phase list");
  }
  std::string_view name() const override { return "churn"; }
  std::vector<std::unique_ptr<SimThread>> MakeThreads(Machine& machine, Allocator& alloc,
                                                      const std::vector<int>& cores,
                                                      std::uint64_t seed) override;

 private:
  std::vector<std::vector<ChurnConfig>> phases_;
  ChurnDrain drain_;
};

struct LarsonConfig {
  std::uint32_t slots_per_thread = 1024;  // global array = slots * threads
  std::uint32_t ops = 20000;              // replacements per thread
  std::uint64_t min_size = 16;
  std::uint64_t max_size = 512;
  std::uint32_t touch_bytes = 32;
};

class LarsonLike : public Workload {
 public:
  explicit LarsonLike(const LarsonConfig& config = {}) : config_(config) {}
  std::string_view name() const override { return "larson-like"; }
  std::vector<std::unique_ptr<SimThread>> MakeThreads(Machine& machine, Allocator& alloc,
                                                      const std::vector<int>& cores,
                                                      std::uint64_t seed) override;

 private:
  LarsonConfig config_;
};

}  // namespace ngx

#endif  // NGX_SRC_WORKLOAD_CHURN_H_
