#include "src/workload/churn.h"

#include <algorithm>
#include <memory>

#include "src/alloc/layout.h"
#include "src/workload/thread_body.h"

namespace ngx {

namespace {

// Runs each phase in order: fill the working set, churn it, then free it in
// the phase's drain order. A failed malloc ends the thread with its blocks
// still held.
ThreadBody ChurnBody(Env env, Allocator& alloc, std::vector<ChurnConfig> phases,
                     ChurnDrain drain, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Addr> blocks;
  for (const ChurnConfig& p : phases) {
    while (blocks.size() < p.live_blocks) {
      const Addr b = co_await MallocCall{env, alloc, rng.Range(p.min_size, p.max_size)};
      if (b == kNullAddr) {
        co_return;
      }
      env.TouchWrite(b, p.touch_bytes);
      blocks.push_back(b);
    }
    for (std::uint32_t done = 0; done < p.ops; ++done) {
      const std::size_t i = rng.Below(blocks.size());
      if (p.read_bytes > 0) {
        env.TouchRead(blocks[i], p.read_bytes);  // use the dying block one last time
      }
      co_await FreeCall{env, alloc, blocks[i]};
      const Addr b = co_await MallocCall{env, alloc, rng.Range(p.min_size, p.max_size)};
      if (b == kNullAddr) {
        blocks.erase(blocks.begin() + static_cast<std::ptrdiff_t>(i));
        co_return;
      }
      env.TouchWrite(b, p.touch_bytes);
      env.Work(p.work);
      blocks[i] = b;
    }
    if (drain == ChurnDrain::kFillOrder) {
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        co_await FreeCall{env, alloc, blocks[i]};
      }
      blocks.clear();
    } else {
      while (!blocks.empty()) {
        co_await FreeCall{env, alloc, blocks.back()};
        blocks.pop_back();
      }
    }
  }
}

struct LarsonShared {
  std::uint32_t running = 0;
};

// `ops` replacements through the shared slot table. However the thread
// ends, it leaves `running`; the last thread out empties the table so every
// allocation is balanced by a free.
ThreadBody LarsonBody(Env env, Allocator& alloc, LarsonConfig config, Addr slots,
                      std::uint32_t num_slots, std::uint64_t seed,
                      std::shared_ptr<LarsonShared> shared) {
  Rng rng(seed);
  for (std::uint32_t done = 0; done < config.ops; ++done) {
    const Addr b = co_await MallocCall{env, alloc, rng.Range(config.min_size, config.max_size)};
    if (b == kNullAddr) {
      break;
    }
    env.TouchWrite(b, config.touch_bytes);
    const Addr slot = slots + 8ull * rng.Below(num_slots);
    // Swap into a random global slot; free whatever lived there, which
    // usually was allocated by a different thread.
    const Addr old = env.AtomicExchange(slot, b);
    if (old != kNullAddr) {
      env.TouchRead(old, 16);
      co_await FreeCall{env, alloc, old};
    }
    env.Work(25);
  }
  if (--shared->running == 0) {
    for (std::uint32_t i = 0; i < num_slots; ++i) {
      const Addr old = env.AtomicExchange(slots + 8ull * i, kNullAddr);
      if (old != kNullAddr) {
        co_await FreeCall{env, alloc, old};
      }
    }
  }
}

}  // namespace

std::vector<std::unique_ptr<SimThread>> Churn::MakeThreads(Machine& machine, Allocator& alloc,
                                                           const std::vector<int>& cores,
                                                           std::uint64_t seed) {
  std::vector<std::unique_ptr<SimThread>> threads;
  threads.reserve(cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const std::size_t list = std::min(i, phases_.size() - 1);
    threads.push_back(std::make_unique<BodyThread>(
        cores[i], ChurnBody(Env(machine, cores[i]), alloc, phases_[list], drain_, seed + 31 * i)));
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
    ++shared->running;
    threads.push_back(std::make_unique<BodyThread>(
        cores[i], LarsonBody(Env(machine, cores[i]), alloc, config_, slots, num_slots,
                             seed + 13 * i, shared)));
  }
  return threads;
}

}  // namespace ngx
