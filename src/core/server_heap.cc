#include "src/core/server_heap.h"

#include "src/alloc/freelist.h"
#include "src/alloc/layout.h"
#include "src/core/segment_heap.h"
#include "src/sim/check.h"

namespace ngx {

namespace {

// ---------------------------------------------------------------------------
// AggregatedHeap
//
// Per-class intrusive free lists; every block carries an 8-byte class header
// directly in front of the user bytes, and free-list links live in the
// blocks themselves.
// ---------------------------------------------------------------------------
class AggregatedHeap : public ServerHeap {
 public:
  AggregatedHeap(Machine& machine, Addr heap_base, Addr meta_base,
                 const ServerHeapConfig& config)
      : machine_(&machine),
        config_(config),
        classes_(config.small_max),
        provider_(heap_base, config.window_bytes ? config.window_bytes : kHeapWindow,
                  "ngx-agg"),
        lock_(0) {
    const std::uint32_t ncls = classes_.num_classes();
    free_count_.assign(ncls, 0);
    meta_provider_ = std::make_unique<PageProvider>(
        meta_base,
        config.meta_window_bytes ? config.meta_window_bytes
                                 : (config.window_bytes ? config.window_bytes : kHeapWindow),
        "ngx-agg-meta");
    meta_base_ = meta_provider_->MapAtStartup(
        machine, AlignUp(64 + 8ull * ncls + 16ull * ncls, kSmallPageBytes),
        config.hugepage_metadata ? PageKind::kHuge2M : PageKind::kSmall4K);
    lock_ = SimLock(meta_base_);
  }

  std::string_view name() const override { return "ngx-aggregated"; }

  Addr Malloc(Env& env, std::uint64_t size) override {
    ++stats_.mallocs;
    MaybeLock(env);
    Addr r;
    if (size > config_.small_max) {
      r = MallocLarge(env, size);
    } else {
      env.Work(6);
      const std::uint32_t cls = classes_.ClassOf(size);
      const std::uint64_t bs = classes_.SizeOf(cls) + 16;  // header keeps 16-alignment
      IntrusiveFreeList list(HeadAddr(cls));
      Addr block = list.Pop(env);  // touches the block's own line
      if (block != kNullAddr) {
        --free_count_[cls];
      }
      if (block == kNullAddr) {
        block = Carve(env, cls, bs);
        if (block != kNullAddr) {
          env.Store<std::uint64_t>(block + 8, cls);  // class tag before user bytes
        }
      }
      if (block != kNullAddr) {
        stats_.bytes_live += bs - 16;
        r = block + 16;
      } else {
        ++stats_.oom_failures;
        r = kNullAddr;
      }
    }
    if (r != kNullAddr) {
      stats_.bytes_requested += size;
    }
    MaybeUnlock(env);
    return r;
  }

  void Free(Env& env, Addr addr) override {
    if (addr == kNullAddr) {
      return;
    }
    ++stats_.frees;
    MaybeLock(env);
    env.Work(5);
    const std::uint64_t header = env.Load<std::uint64_t>(addr - 8);
    if (header & kLargeFlag) {
      const std::uint64_t bytes = header & ~kLargeFlag;
      stats_.bytes_live -= bytes - kSmallPageBytes;
      --large_blocks_;
      large_bytes_ -= bytes;
      ++stats_.munmap_calls;
      provider_.Unmap(env, addr - kSmallPageBytes, bytes);
    } else {
      const std::uint32_t cls = static_cast<std::uint32_t>(header);
      stats_.bytes_live -= classes_.SizeOf(cls);
      IntrusiveFreeList list(HeadAddr(cls));
      list.Push(env, addr - 16);  // link lives at block+0; class tag at +8 survives
      ++free_count_[cls];
    }
    MaybeUnlock(env);
  }

  std::uint64_t UsableSize(Env& env, Addr addr) override {
    const std::uint64_t header = env.Load<std::uint64_t>(addr - 8);
    if (header & kLargeFlag) {
      return (header & ~kLargeFlag) - kSmallPageBytes;
    }
    return classes_.SizeOf(static_cast<std::uint32_t>(header));
  }

  std::int64_t ClassifyForRecycle(Env& env, Addr addr) override {
    const std::uint64_t header = env.Load<std::uint64_t>(addr - 8);
    if (header & kLargeFlag) {
      return -1;
    }
    return static_cast<std::int64_t>(static_cast<std::uint32_t>(header));
  }

  AllocatorStats stats() const override {
    AllocatorStats s = stats_;
    s.mapped_bytes = provider_.mapped_bytes() + meta_provider_->mapped_bytes();
    s.mmap_calls = provider_.mmap_calls();
    s.munmap_calls = provider_.munmap_calls();
    return s;
  }

  HeapOccupancy Inspect() const override {
    HeapOccupancy in;
    in.bytes_live = stats_.bytes_live;
    in.data_mapped_bytes = provider_.mapped_bytes();
    in.meta_mapped_bytes = meta_provider_->mapped_bytes();
    // Intrusive lists are unbounded to walk, so the free depths come from
    // host mirrors kept by Malloc/Free; only the cursor's remaining word is
    // read (untimed) from simulated memory.
    const SimMemory& mem = machine_->memory();
    for (std::uint32_t cls = 0; cls < classes_.num_classes(); ++cls) {
      in.free_blocks += free_count_[cls];
      in.free_block_bytes += free_count_[cls] * (classes_.SizeOf(cls) + 16);
      in.bump_reserve_bytes += mem.Read<std::uint64_t>(CursorAddr(cls) + 8);
    }
    in.large_blocks = large_blocks_;
    in.large_bytes = large_bytes_;
    return in;
  }

  PageProvider& span_provider() override { return provider_; }

 private:
  static constexpr std::uint64_t kLargeFlag = 1ull << 63;

  Addr HeadAddr(std::uint32_t cls) const { return meta_base_ + 64 + 8ull * cls; }
  Addr CursorAddr(std::uint32_t cls) const {
    return meta_base_ + 64 + 8ull * classes_.num_classes() + 16ull * cls;
  }

  void MaybeLock(Env& env) {
    if (config_.use_lock) {
      lock_.Acquire(env);
    }
  }
  void MaybeUnlock(Env& env) {
    if (config_.use_lock) {
      lock_.Release(env);
    }
  }

  Addr Carve(Env& env, std::uint32_t cls, std::uint64_t bs) {
    Addr bump = env.Load<Addr>(CursorAddr(cls));
    std::uint64_t remaining = env.Load<std::uint64_t>(CursorAddr(cls) + 8);
    if (remaining < bs) {
      const Addr span = provider_.Map(
          env, config_.span_bytes,
          config_.hugepage_spans ? PageKind::kHuge2M : PageKind::kSmall4K);
      if (span == kNullAddr) {
        return kNullAddr;
      }
      ++stats_.mmap_calls;
      bump = span;
      remaining = config_.span_bytes;
    }
    env.Store<Addr>(CursorAddr(cls), bump + bs);
    env.Store<std::uint64_t>(CursorAddr(cls) + 8, remaining - bs);
    return bump;
  }

  Addr MallocLarge(Env& env, std::uint64_t size) {
    env.Work(8);
    const std::uint64_t bytes = AlignUp(size, kSmallPageBytes) + kSmallPageBytes;
    const Addr region = provider_.Map(env, bytes, PageKind::kSmall4K);
    if (region == kNullAddr) {
      ++stats_.oom_failures;
      return kNullAddr;
    }
    ++stats_.mmap_calls;
    const Addr addr = region + kSmallPageBytes;
    env.Store<std::uint64_t>(addr - 8, bytes | kLargeFlag);
    stats_.bytes_live += bytes - kSmallPageBytes;
    ++large_blocks_;
    large_bytes_ += bytes;
    return addr;
  }

  Machine* machine_;
  ServerHeapConfig config_;
  SizeClasses classes_;
  PageProvider provider_;
  std::unique_ptr<PageProvider> meta_provider_;
  Addr meta_base_ = 0;
  std::vector<std::uint64_t> free_count_;  // host mirror, one per class
  std::uint64_t large_blocks_ = 0;         // host mirrors for Inspect()
  std::uint64_t large_bytes_ = 0;
  SimLock lock_;
  AllocatorStats stats_;
};

}  // namespace

std::unique_ptr<ServerHeap> MakeServerHeap(Machine& machine, Addr heap_base, Addr meta_base,
                                           const ServerHeapConfig& config) {
  switch (config.heap_kind) {
    case HeapKind::kSegment:
      return MakeSegmentHeap(machine, heap_base, meta_base, config);
    case HeapKind::kAggregated:
      return std::make_unique<AggregatedHeap>(machine, heap_base, meta_base, config);
  }
  NGX_CHECK(false, "unknown heap kind");
  return nullptr;
}

}  // namespace ngx
