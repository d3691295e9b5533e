// Workload threads as C++20 coroutines.
//
// A workload thread is one straight-line body. Its loads, stores and work go
// through its own Env, and each allocator call is `co_await MallocCall{...}`
// or `co_await FreeCall{...}`. The awaitable suspends the body *before* the
// call; the next Step resumes it, makes the call at the clock that Step
// started and runs on to the body's next suspension. So a Step makes at most
// one allocator call, first thing, and the scheduler -- which steps the
// thread whose clock is earliest -- issues calls in send order
// (src/sim/scheduler.h). A body that waits on another thread without calling
// the allocator yields with `co_await std::suspend_always{}`.
#ifndef NGX_SRC_WORKLOAD_THREAD_BODY_H_
#define NGX_SRC_WORKLOAD_THREAD_BODY_H_

#include <coroutine>
#include <exception>
#include <utility>

#include "src/sim/scheduler.h"
#include "src/workload/alloc_ops.h"

namespace ngx {

// The coroutine type of a thread body. It starts suspended, so a body runs
// only inside its BodyThread's Steps, and it owns its frame.
class ThreadBody {
 public:
  struct promise_type {
    ThreadBody get_return_object() {
      return ThreadBody(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };

  ThreadBody(ThreadBody&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  ThreadBody& operator=(ThreadBody&&) = delete;
  ~ThreadBody() {
    if (handle_) {
      handle_.destroy();
    }
  }

  // Runs the body to its next suspension; false once it has returned.
  bool Resume() {
    handle_.resume();
    return !handle_.done();
  }

 private:
  explicit ThreadBody(std::coroutine_handle<promise_type> handle) : handle_(handle) {}
  std::coroutine_handle<promise_type> handle_;
};

// A body pinned to `core`, run as a SimThread.
class BodyThread final : public SimThread {
 public:
  BodyThread(int core, ThreadBody body) : core_(core), body_(std::move(body)) {}
  int core_id() const override { return core_; }
  bool Step(Env& /*env*/) override { return body_.Resume(); }

 private:
  int core_;
  ThreadBody body_;
};

// `co_await MallocCall{env, alloc, size}` yields the block (kNullAddr on
// failure), allocated when the thread is next stepped.
struct MallocCall {
  Env& env;
  Allocator& alloc;
  std::uint64_t size;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> /*body*/) const noexcept {}
  Addr await_resume() const { return TimedMalloc(env, alloc, size); }
};

// `co_await FreeCall{env, alloc, addr}` frees `addr` when the thread is next
// stepped.
struct FreeCall {
  Env& env;
  Allocator& alloc;
  Addr addr;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> /*body*/) const noexcept {}
  void await_resume() const { TimedFree(env, alloc, addr); }
};

}  // namespace ngx

#endif  // NGX_SRC_WORKLOAD_THREAD_BODY_H_
