// Deterministic virtual-time scheduler.
//
// Simulated threads are pinned 1:1 to cores. The scheduler repeatedly steps
// the unfinished thread whose core clock is smallest (ties broken by thread
// index), so multi-threaded runs are bit-reproducible. What makes that
// order causal is the Step contract below: a Step makes at most one
// allocator call, first, at the clock the Step started. Calls therefore
// reach a shared offload shard in send order, and the shard serves each at
// max(its server clock, the send) (OffloadEngine). src/workload's threads
// meet the contract by suspending before each call (thread_body.h).
#ifndef NGX_SRC_SIM_SCHEDULER_H_
#define NGX_SRC_SIM_SCHEDULER_H_

#include <vector>

#include "src/sim/env.h"

namespace ngx {

class SimThread {
 public:
  virtual ~SimThread() = default;

  // Runs one step: at most one allocator call, made first, at the clock the
  // step starts, then the thread's own work up to its next call. Returns
  // false when the thread has finished.
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
