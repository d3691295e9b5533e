#include "src/workload/false_sharing.h"

#include "src/workload/thread_body.h"

namespace ngx {

namespace {

// Allocates a sub-line object, writes it many times and frees it, per
// iteration.
ThreadBody ThrashBody(Env env, Allocator& alloc, FalseSharingConfig config) {
  for (std::uint32_t done = 0; done < config.iterations; ++done) {
    const Addr obj = co_await MallocCall{env, alloc, config.object_bytes};
    if (obj == kNullAddr) {
      co_return;
    }
    for (std::uint32_t w = 0; w < config.writes_per_iter; ++w) {
      env.Store<std::uint64_t>(obj, w);
      env.Work(4);
    }
    co_await FreeCall{env, alloc, obj};
  }
}

// Writes the object it was handed, then re-allocates locally, per
// iteration: a well-behaved allocator migrates the object to thread-private
// storage; a shared-pool allocator re-creates sharing.
ThreadBody ScratchBody(Env env, Allocator& alloc, FalseSharingConfig config, Addr obj) {
  for (std::uint32_t done = 0; done < config.iterations; ++done) {
    for (std::uint32_t w = 0; w < config.writes_per_iter; ++w) {
      env.Store<std::uint64_t>(obj, w);
      env.Work(4);
    }
    co_await FreeCall{env, alloc, obj};
    obj = co_await MallocCall{env, alloc, config.object_bytes};
    if (obj == kNullAddr) {
      co_return;
    }
  }
  if (obj != kNullAddr) {
    co_await FreeCall{env, alloc, obj};
  }
}

}  // namespace

std::vector<std::unique_ptr<SimThread>> CacheThrash::MakeThreads(Machine& machine,
                                                                 Allocator& alloc,
                                                                 const std::vector<int>& cores,
                                                                 std::uint64_t seed) {
  (void)seed;
  std::vector<std::unique_ptr<SimThread>> threads;
  threads.reserve(cores.size());
  for (const int core : cores) {
    threads.push_back(
        std::make_unique<BodyThread>(core, ThrashBody(Env(machine, core), alloc, config_)));
  }
  return threads;
}

std::vector<std::unique_ptr<SimThread>> CacheScratch::MakeThreads(Machine& machine,
                                                                  Allocator& alloc,
                                                                  const std::vector<int>& cores,
                                                                  std::uint64_t seed) {
  (void)seed;
  // The "main thread" (first core) allocates everyone's initial object.
  std::vector<std::unique_ptr<SimThread>> threads;
  threads.reserve(cores.size());
  Env main_env(machine, cores.front());
  for (const int core : cores) {
    const Addr obj = TimedMalloc(main_env, alloc, config_.object_bytes);
    threads.push_back(
        std::make_unique<BodyThread>(core, ScratchBody(Env(machine, core), alloc, config_, obj)));
  }
  return threads;
}

}  // namespace ngx
