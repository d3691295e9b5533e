// Deterministic virtual-time scheduler.
//
// Simulated threads are pinned 1:1 to cores. The scheduler repeatedly steps
// the unfinished thread whose core clock is smallest (ties broken by thread
// index), so multi-threaded runs are bit-reproducible. Threads interleave at
// step granularity, and one Step is whatever the workload does in one call:
// for xmalloc, up to one batch of frees then one of mallocs (16 allocator
// operations at the default batch of 8); for churn, a free and a malloc. So
// one thread's later operations can reach a shared offload shard before
// another thread's earlier ones; the shards serve sync requests in send
// order regardless (OffloadEngine's calendar of idle gaps).
#ifndef NGX_SRC_SIM_SCHEDULER_H_
#define NGX_SRC_SIM_SCHEDULER_H_

#include <vector>

#include "src/sim/env.h"

namespace ngx {

class SimThread {
 public:
  virtual ~SimThread() = default;

  // Runs one step: any number of operations (an xmalloc batch, a free and a
  // malloc, a burst of user work). Returns false when the thread has
  // finished.
  virtual bool Step(Env& env) = 0;

  // Core this thread is pinned to.
  virtual int core_id() const = 0;
};

class Scheduler {
 public:
  // Runs all threads to completion. `max_steps` guards against livelock in
  // tests (0 = unlimited).
  static void Run(Machine& machine, const std::vector<SimThread*>& threads,
                  std::uint64_t max_steps = 0);
};

}  // namespace ngx

#endif  // NGX_SRC_SIM_SCHEDULER_H_
