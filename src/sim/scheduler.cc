#include "src/sim/scheduler.h"

#include <cassert>

namespace ngx {

void Scheduler::Run(Machine& machine, const std::vector<SimThread*>& threads,
                    std::uint64_t max_steps) {
  std::vector<bool> done(threads.size(), false);
  std::size_t remaining = threads.size();
  std::uint64_t steps = 0;
  while (remaining > 0) {
    // Pick the live thread with the smallest core clock.
    std::size_t pick = threads.size();
    std::uint64_t best = ~0ull;
    for (std::size_t i = 0; i < threads.size(); ++i) {
      if (done[i]) {
        continue;
      }
      const std::uint64_t t = machine.core(threads[i]->core_id()).now();
      if (t < best) {
        best = t;
        pick = i;
      }
    }
    assert(pick < threads.size());
    // Periodic timers (watermark ticks, epoch closes) fire once the
    // virtual-time front passes their due point -- including on cores ahead
    // of every runnable thread.
    if (machine.has_timer_hooks()) {
      machine.RunTimerHooks(best);
    }
    Env env(machine, threads[pick]->core_id());
    if (!threads[pick]->Step(env)) {
      done[pick] = true;
      --remaining;
    }
    if (max_steps != 0 && ++steps >= max_steps) {
      return;
    }
  }
}

}  // namespace ngx
