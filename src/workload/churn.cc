#include "src/workload/churn.h"

#include <algorithm>
#include <memory>

#include "src/alloc/layout.h"
#include "src/workload/alloc_ops.h"

namespace ngx {

namespace {

class ChurnThread : public SimThread {
 public:
  ChurnThread(const std::vector<ChurnConfig>& phases, ChurnDrain drain, Allocator& alloc,
              int core, std::uint64_t seed)
      : phases_(phases), drain_(drain), alloc_(&alloc), core_(core), rng_(seed) {}

  int core_id() const override { return core_; }

  bool Step(Env& env) override {
    if (phase_ >= phases_.size()) {
      return false;
    }
    if (draining_) {
      if (!blocks_.empty()) {
        TimedFree(env, *alloc_, blocks_.back());
        blocks_.pop_back();
        return true;
      }
      draining_ = false;
      return NextPhase();
    }
    const ChurnConfig& p = phases_[phase_];
    if (blocks_.size() < p.live_blocks) {
      // Fill: build the working set.
      const Addr b = TimedMalloc(env, *alloc_, rng_.Range(p.min_size, p.max_size));
      if (b == kNullAddr) {
        return false;
      }
      env.TouchWrite(b, p.touch_bytes);
      blocks_.push_back(b);
      return true;
    }
    if (done_ >= p.ops) {
      if (drain_ == ChurnDrain::kOnePerStep) {
        draining_ = true;
        return true;
      }
      for (const Addr b : blocks_) {
        TimedFree(env, *alloc_, b);
      }
      blocks_.clear();
      return NextPhase();
    }
    const std::size_t i = rng_.Below(blocks_.size());
    if (p.read_bytes > 0) {
      env.TouchRead(blocks_[i], p.read_bytes);  // use the dying block one last time
    }
    TimedFree(env, *alloc_, blocks_[i]);
    const Addr b = TimedMalloc(env, *alloc_, rng_.Range(p.min_size, p.max_size));
    if (b == kNullAddr) {
      blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(i));
      return false;
    }
    env.TouchWrite(b, p.touch_bytes);
    env.Work(p.work);
    blocks_[i] = b;
    ++done_;
    return true;
  }

 private:
  bool NextPhase() {
    done_ = 0;
    ++phase_;
    return phase_ < phases_.size();
  }

  std::vector<ChurnConfig> phases_;
  ChurnDrain drain_;
  Allocator* alloc_;
  int core_;
  Rng rng_;
  std::vector<Addr> blocks_;
  std::size_t phase_ = 0;
  std::uint32_t done_ = 0;
  bool draining_ = false;
};

struct LarsonShared {
  std::uint32_t running = 0;
};

class LarsonThread : public SimThread {
 public:
  LarsonThread(const LarsonConfig& config, Allocator& alloc, int core, Addr slots,
               std::uint32_t num_slots, std::uint64_t seed,
               std::shared_ptr<LarsonShared> shared)
      : config_(config),
        alloc_(&alloc),
        core_(core),
        slots_(slots),
        num_slots_(num_slots),
        rng_(seed),
        shared_(std::move(shared)) {
    ++shared_->running;
  }

  int core_id() const override { return core_; }

  bool Step(Env& env) override {
    if (done_ >= config_.ops) {
      // The last thread standing empties the table so every allocation is
      // balanced by a free.
      if (--shared_->running == 0) {
        for (std::uint32_t i = 0; i < num_slots_; ++i) {
          const Addr old = env.AtomicExchange(slots_ + 8ull * i, kNullAddr);
          if (old != kNullAddr) {
            TimedFree(env, *alloc_, old);
          }
        }
      }
      return false;
    }
    constexpr std::uint32_t kBatch = 4;
    for (std::uint32_t i = 0; i < kBatch && done_ < config_.ops; ++i, ++done_) {
      const Addr b = TimedMalloc(env, *alloc_, rng_.Range(config_.min_size, config_.max_size));
      if (b == kNullAddr) {
        return false;
      }
      env.TouchWrite(b, config_.touch_bytes);
      const Addr slot = slots_ + 8ull * rng_.Below(num_slots_);
      // Swap into a random global slot; free whatever lived there, which
      // usually was allocated by a different thread.
      const Addr old = env.AtomicExchange(slot, b);
      if (old != kNullAddr) {
        env.TouchRead(old, 16);
        TimedFree(env, *alloc_, old);
      }
      env.Work(25);
    }
    return true;
  }

 private:
  LarsonConfig config_;
  Allocator* alloc_;
  int core_;
  Addr slots_;
  std::uint32_t num_slots_;
  Rng rng_;
  std::shared_ptr<LarsonShared> shared_;
  std::uint32_t done_ = 0;
};

}  // namespace

std::vector<std::unique_ptr<SimThread>> Churn::MakeThreads(Machine& machine, Allocator& alloc,
                                                           const std::vector<int>& cores,
                                                           std::uint64_t seed) {
  (void)machine;
  std::vector<std::unique_ptr<SimThread>> threads;
  threads.reserve(cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const std::size_t list = std::min(i, phases_.size() - 1);
    threads.push_back(
        std::make_unique<ChurnThread>(phases_[list], drain_, alloc, cores[i], seed + 31 * i));
  }
  return threads;
}

std::vector<std::unique_ptr<SimThread>> LarsonLike::MakeThreads(Machine& machine,
                                                                Allocator& alloc,
                                                                const std::vector<int>& cores,
                                                                std::uint64_t seed) {
  const std::uint32_t num_slots =
      config_.slots_per_thread * static_cast<std::uint32_t>(cores.size());
  const Addr slots = kWorkloadBase + (16ull << 20);  // clear of xmalloc's queues
  machine.address_map().Add(Region{slots, AlignUp(8ull * num_slots, kSmallPageBytes),
                                   PageKind::kSmall4K, "larson-slots"});
  auto shared = std::make_shared<LarsonShared>();
  std::vector<std::unique_ptr<SimThread>> threads;
  threads.reserve(cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i) {
    threads.push_back(std::make_unique<LarsonThread>(config_, alloc, cores[i], slots,
                                                     num_slots, seed + 13 * i, shared));
  }
  return threads;
}

}  // namespace ngx
