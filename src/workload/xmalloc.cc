#include "src/workload/xmalloc.h"

#include <memory>

#include "src/alloc/layout.h"
#include "src/workload/thread_body.h"

namespace ngx {

namespace {

// Handoff queue layout per ring edge (4 KiB stride):
//   +0 head (producer-written), +64 tail (consumer-written), +128 entries.
constexpr std::uint64_t kQueueStride = 4096;

struct XmallocShared {
  std::vector<bool> producer_done;
};

Addr EntryAddr(Addr q, std::uint64_t i, std::uint32_t slots) { return q + 128 + 8 * (i % slots); }

// Each round drains up to a batch of incoming blocks, then produces up to a
// batch into the outgoing queue, publishing each queue index once per batch.
// Once done producing, the thread keeps draining until the upstream
// producer is done and its incoming queue is empty.
ThreadBody XmallocBody(Env env, Allocator& alloc, XmallocConfig config, std::uint32_t index,
                       std::uint32_t nthreads, Addr queue_base, std::uint64_t seed,
                       std::shared_ptr<XmallocShared> shared) {
  Rng rng(seed);
  const SizeDist sizes = SizeDist::XmallocBlocks();
  const std::uint32_t upstream = (index + nthreads - 1) % nthreads;
  const Addr out = queue_base + kQueueStride * index;
  const Addr in = queue_base + kQueueStride * upstream;
  std::uint32_t produced = 0;
  for (;;) {
    const std::uint64_t in_head = env.Load<std::uint64_t>(in + 0);
    std::uint64_t in_tail = env.Load<std::uint64_t>(in + 64);
    std::uint32_t drained = 0;
    while (in_tail != in_head && drained < config.batch) {
      const Addr block = env.Load<Addr>(EntryAddr(in, in_tail, config.queue_slots));
      env.TouchRead(block, config.touch_bytes);  // consumer uses the data
      env.Work(20);
      co_await FreeCall{env, alloc, block};  // cross-thread free: Table 2's trigger
      ++in_tail;
      ++drained;
    }
    if (drained > 0) {
      env.Store<std::uint64_t>(in + 64, in_tail);
    }

    if (produced < config.ops_per_thread) {
      std::uint64_t head = env.Load<std::uint64_t>(out + 0);
      const std::uint64_t tail = env.Load<std::uint64_t>(out + 64);
      std::uint32_t produced_now = 0;
      while (produced_now < config.batch && produced < config.ops_per_thread &&
             head - tail < config.queue_slots) {
        const std::uint64_t size = sizes.Sample(rng);
        const Addr block = co_await MallocCall{env, alloc, size};
        if (block == kNullAddr) {
          produced = config.ops_per_thread;  // OOM: stop producing
          break;
        }
        env.TouchWrite(block, config.touch_bytes);
        env.Work(25);
        env.Store<Addr>(EntryAddr(out, head, config.queue_slots), block);
        ++head;
        ++produced;
        ++produced_now;
      }
      if (produced_now > 0) {
        env.Store<std::uint64_t>(out + 0, head);
      }
      if (produced >= config.ops_per_thread) {
        shared->producer_done[index] = true;
      }
    } else if (shared->producer_done[upstream]) {
      const std::uint64_t head = env.Load<std::uint64_t>(in + 0);
      if (head == env.Load<std::uint64_t>(in + 64)) {
        co_return;  // the upstream producer is done and nothing is left to free
      }
    }
    // The next round's queue reads run in a Step of their own, after every
    // store another thread made at an earlier clock.
    co_await std::suspend_always{};
  }
}

}  // namespace

std::vector<std::unique_ptr<SimThread>> XmallocLike::MakeThreads(Machine& machine,
                                                                 Allocator& alloc,
                                                                 const std::vector<int>& cores,
                                                                 std::uint64_t seed) {
  const auto n = static_cast<std::uint32_t>(cores.size());
  const Addr queue_base = kWorkloadBase;
  machine.address_map().Add(
      Region{queue_base, kQueueStride * n, PageKind::kSmall4K, "xmalloc-queues"});
  auto shared = std::make_shared<XmallocShared>();
  shared->producer_done.assign(n, false);
  std::vector<std::unique_ptr<SimThread>> threads;
  threads.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    threads.push_back(std::make_unique<BodyThread>(
        cores[i], XmallocBody(Env(machine, cores[i]), alloc, config_, i, n, queue_base,
                              seed + 77 * i, shared)));
  }
  return threads;
}

}  // namespace ngx
