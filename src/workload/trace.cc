#include "src/workload/trace.h"

#include <algorithm>
#include <istream>
#include <memory>
#include <ostream>

#include "src/sim/check.h"
#include "src/workload/thread_body.h"

namespace ngx {

void Trace::Save(std::ostream& os) const {
  os << "ngxtrace 1 " << num_threads << " " << ops.size() << "\n";
  for (const TraceOp& op : ops) {
    if (op.kind == TraceOp::Kind::kMalloc) {
      os << "m " << op.thread << " " << op.index << " " << op.size << "\n";
    } else {
      os << "f " << op.thread << " " << op.index << "\n";
    }
  }
}

Trace Trace::Load(std::istream& is) {
  Trace t;
  std::string magic;
  int version = 0;
  std::size_t count = 0;
  is >> magic >> version >> t.num_threads >> count;
  NGX_CHECK(magic == "ngxtrace", "not an ngxtrace file");
  NGX_CHECK(version == 1, "unsupported ngxtrace version");
  NGX_CHECK(!is.fail(), "truncated ngxtrace header");
  char kind = 0;
  while (is >> kind) {
    NGX_CHECK(kind == 'm' || kind == 'f', "trace op is neither m nor f");
    TraceOp op;
    if (kind == 'm') {
      op.kind = TraceOp::Kind::kMalloc;
      is >> op.thread >> op.index >> op.size;
    } else {
      op.kind = TraceOp::Kind::kFree;
      is >> op.thread >> op.index;
    }
    NGX_CHECK(!is.fail(), "truncated trace op");
    t.ops.push_back(op);
  }
  NGX_CHECK(t.ops.size() == count, "trace op count differs from its header");
  return t;
}

Addr TraceRecordingAllocator::Malloc(Env& env, std::uint64_t size) {
  const Addr addr = inner_->Malloc(env, size);
  if (addr != kNullAddr) {
    const std::uint64_t index = next_index_++;
    live_[addr] = index;
    trace_.ops.push_back(TraceOp{TraceOp::Kind::kMalloc,
                                 static_cast<std::uint32_t>(env.core_id()), index, size});
  }
  return addr;
}

void TraceRecordingAllocator::Free(Env& env, Addr addr) {
  auto it = live_.find(addr);
  if (it != live_.end()) {
    trace_.ops.push_back(TraceOp{TraceOp::Kind::kFree,
                                 static_cast<std::uint32_t>(env.core_id()), it->second, 0});
    live_.erase(it);
  }
  inner_->Free(env, addr);
}

Trace TraceRecordingAllocator::TakeTrace() {
  Trace out = std::move(trace_);
  trace_ = Trace{};
  live_.clear();
  next_index_ = 0;
  return out;
}

namespace {

struct ReplayShared {
  std::unordered_map<std::uint64_t, Addr> blocks;  // trace index -> live addr
  bool stopped = false;  // a malloc failed: a thread that finds its block missing ends
};

// Replays one thread's ops in order. A free waits, yielding, until the
// thread that owns its block's malloc has made it, or a malloc has failed.
ThreadBody ReplayBody(Env env, Allocator& alloc, std::vector<TraceOp> ops,
                      std::uint32_t touch_bytes, std::shared_ptr<ReplayShared> shared) {
  for (const TraceOp& op : ops) {
    if (op.kind == TraceOp::Kind::kMalloc) {
      const Addr addr = co_await MallocCall{env, alloc, op.size};
      if (addr == kNullAddr) {
        shared->stopped = true;
        co_return;
      }
      env.TouchWrite(addr,
                     std::min<std::uint32_t>(touch_bytes, static_cast<std::uint32_t>(op.size)));
      shared->blocks[op.index] = addr;
      continue;
    }
    auto it = shared->blocks.find(op.index);
    while (it == shared->blocks.end()) {
      if (shared->stopped) {
        co_return;
      }
      // The producing thread has not reached the malloc yet: yield.
      env.Work(5);
      co_await std::suspend_always{};
      it = shared->blocks.find(op.index);
    }
    const Addr addr = it->second;
    shared->blocks.erase(it);
    co_await FreeCall{env, alloc, addr};
  }
}

}  // namespace

TraceReplay::TraceReplay(Trace trace, std::uint32_t touch_bytes)
    : trace_(std::move(trace)), touch_bytes_(touch_bytes) {
  // Every free must follow its block's malloc in trace order and free it
  // once; otherwise a replay thread would wait forever for the block.
  std::unordered_map<std::uint64_t, bool> live;  // block id -> allocated, not yet freed
  for (const TraceOp& op : trace_.ops) {
    if (op.kind == TraceOp::Kind::kMalloc) {
      NGX_CHECK(live.emplace(op.index, true).second, "trace mallocs one block id twice");
      continue;
    }
    auto it = live.find(op.index);
    NGX_CHECK(it != live.end(), "trace frees a block before its malloc");
    NGX_CHECK(it->second, "trace frees a block twice");
    it->second = false;
  }
}

std::vector<std::unique_ptr<SimThread>> TraceReplay::MakeThreads(Machine& machine,
                                                                 Allocator& alloc,
                                                                 const std::vector<int>& cores,
                                                                 std::uint64_t seed) {
  (void)seed;
  auto shared = std::make_shared<ReplayShared>();
  std::vector<std::vector<TraceOp>> per_thread(cores.size());
  for (const TraceOp& op : trace_.ops) {
    per_thread[op.thread % cores.size()].push_back(op);
  }
  std::vector<std::unique_ptr<SimThread>> threads;
  threads.reserve(cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i) {
    threads.push_back(std::make_unique<BodyThread>(
        cores[i], ReplayBody(Env(machine, cores[i]), alloc, std::move(per_thread[i]),
                             touch_bytes_, shared)));
  }
  return threads;
}

}  // namespace ngx
