// Allocation-trace record/replay.
//
// A trace is a flat list of ops referring to blocks by index, so it can be
// replayed against any allocator (addresses differ run to run). Traces can
// be captured from any workload via TraceRecordingAllocator, saved/loaded in
// a simple text format, and replayed with TraceReplay.
#ifndef NGX_SRC_WORKLOAD_TRACE_H_
#define NGX_SRC_WORKLOAD_TRACE_H_

#include <iosfwd>
#include <unordered_map>

#include "src/workload/workload.h"

namespace ngx {

struct TraceOp {
  enum class Kind : std::uint8_t { kMalloc, kFree };
  Kind kind = Kind::kMalloc;
  std::uint32_t thread = 0;
  std::uint64_t index = 0;  // block id
  std::uint64_t size = 0;   // malloc only
};

struct Trace {
  std::vector<TraceOp> ops;
  std::uint32_t num_threads = 1;

  void Save(std::ostream& os) const;
  static Trace Load(std::istream& is);
};

// Wraps an allocator, recording every malloc/free into a Trace.
class TraceRecordingAllocator : public Allocator {
 public:
  explicit TraceRecordingAllocator(Allocator& inner) : inner_(&inner) {}

  std::string_view name() const override { return inner_->name(); }
  Addr Malloc(Env& env, std::uint64_t size) override;
  void Free(Env& env, Addr addr) override;
  std::uint64_t UsableSize(Env& env, Addr addr) override {
    return inner_->UsableSize(env, addr);
  }
  void Flush(Env& env) override { inner_->Flush(env); }
  AllocatorStats stats() const override { return inner_->stats(); }

  Trace TakeTrace();

 private:
  Allocator* inner_;
  Trace trace_;
  std::unordered_map<Addr, std::uint64_t> live_;  // addr -> block id
  std::uint64_t next_index_ = 0;
};

// Replays a trace (ops partitioned by their thread field across `cores`).
// The trace must free each block once, after its malloc in trace order.
class TraceReplay : public Workload {
 public:
  explicit TraceReplay(Trace trace, std::uint32_t touch_bytes = 32);

  std::string_view name() const override { return "trace-replay"; }
  std::vector<std::unique_ptr<SimThread>> MakeThreads(Machine& machine, Allocator& alloc,
                                                      const std::vector<int>& cores,
                                                      std::uint64_t seed) override;

 private:
  Trace trace_;
  std::uint32_t touch_bytes_;
};

}  // namespace ngx

#endif  // NGX_SRC_WORKLOAD_TRACE_H_
