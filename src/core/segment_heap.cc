#include "src/core/segment_heap.h"

#include <cassert>

#include "src/alloc/freelist.h"
#include "src/alloc/layout.h"
#include "src/sim/check.h"

namespace ngx {

namespace {

// Slab header state word, bit 32: the slab is linked into its class's
// available list. Exhausted slabs unlink; the first free re-links them, and
// the flag is what lets a fully-freed slab know whether it has neighbours to
// unlink from (a one-block slab retires without ever being re-linked).
constexpr std::uint64_t kSlabInList = 1ull << 32;

constexpr std::uint64_t kFullMask = (1ull << kUnitsPerSegment) - 1;

std::uint32_t LowestSetBit(std::uint64_t mask) {
  assert(mask != 0);
  std::uint32_t i = 0;
  while ((mask & 1) == 0) {
    mask >>= 1;
    ++i;
  }
  return i;
}

}  // namespace

SegmentHeap::SegmentHeap(Machine& machine, Addr heap_base, Addr meta_base,
                         const ServerHeapConfig& config)
    : config_(config),
      classes_(config.small_max),
      span_provider_(heap_base, config.window_bytes ? config.window_bytes : kHeapWindow,
                     "ngx-seg"),
      meta_provider_(meta_base,
                     config.meta_window_bytes
                         ? config.meta_window_bytes
                         : (config.window_bytes ? config.window_bytes : kHeapWindow),
                     "ngx-seg-meta"),
      machine_(&machine),
      layout_(heap_base, meta_base, config.span_bytes, classes_.num_classes(),
              config.empty_segment_retain),
      lock_(meta_base) {
  NGX_CHECK(config.small_max <= config.span_bytes,
            "a small block must fit one segment");
  // Whole-segment classes reach BlocksPerSlab via span/size; keep the count
  // in the 16-bit bump/free fields (the 16 B class bounds it anyway).
  NGX_CHECK(layout_.unit_bytes() / 16 < (1u << 16),
            "slab freelist indices must fit in 16 bits");
  const Addr mapped = meta_provider_.MapAtStartup(
      machine, layout_.MappedMetaBytes(),
      config.hugepage_metadata ? PageKind::kHuge2M : PageKind::kSmall4K);
  NGX_CHECK(mapped == meta_base, "segment metadata must start at the window base");
  // Retention needs retirement to be lazy; with empty_segment_retain = 0 the
  // caller asked for the return-everything mode and retirement stays eager
  // (see ServerHeapConfig::slab_retain_depth).
  retain_depth_ = config.empty_segment_retain > 0 ? config.slab_retain_depth : 0;
  free_slabs_.assign(classes_.num_classes(), 0);
}

void SegmentHeap::MaybeLock(Env& env) {
  if (config_.use_lock) {
    lock_.Acquire(env);
  }
}

void SegmentHeap::MaybeUnlock(Env& env) {
  if (config_.use_lock) {
    lock_.Release(env);
  }
}

bool SegmentHeap::Recording() {
  if (!machine_->telemetry().enabled()) {
    return false;
  }
  if (!instruments_bound_) {
    BindInstruments();
  }
  return true;
}

void SegmentHeap::BindInstruments() {
  // The slab split also lives in seg_stats_; the registry keeps this copy
  // because the repository benchmark's harness (perfbench/src/harness.cc)
  // reads the split from the registry of its traced run.
  MetricsRegistry& m = machine_->telemetry().metrics();
  c_slab_reuses_ = &m.GetCounter("ngx.slab_reuses", {});
  c_slab_fresh_ = &m.GetCounter("ngx.slab_fresh", {});
  instruments_bound_ = true;
}

Addr SegmentHeap::Malloc(Env& env, std::uint64_t size) {
  ++stats_.mallocs;
  MaybeLock(env);
  Addr r;
  if (size > config_.small_max) {
    r = MallocLarge(env, size);
  } else {
    r = MallocSmall(env, size);
  }
  if (r != kNullAddr) {
    stats_.bytes_requested += size;
  }
  MaybeUnlock(env);
  return r;
}

Addr SegmentHeap::MallocSmall(Env& env, std::uint64_t size) {
  env.Work(6);
  const std::uint32_t cls = classes_.ClassOf(size);
  const std::uint64_t bs = classes_.SizeOf(cls);
  Addr header = env.Load<Addr>(layout_.ClassHeadAddr(cls));
  if (header == 0) {
    const std::uint64_t unit = AcquireSlab(env, cls);
    if (unit == ~0ull) {
      ++stats_.oom_failures;
      return kNullAddr;
    }
    header = layout_.HeaderAddr(unit);
  }
  // Everything hot -- count, bump cursor and the top freelist entries --
  // shares this one header line.
  const std::uint64_t unit = layout_.UnitOfHeader(header);
  std::uint64_t state = env.Load<std::uint64_t>(header);
  std::uint32_t fc = SlabFreeCount(state);
  std::uint32_t bu = SlabBumpUsed(state);
  if (fc > 0 && fc == bu && free_slabs_[cls] > 0) {
    // Carving from a retained fully-free slab puts it back in use; its
    // retention slot reopens for the next fully-free slab. (A fully-free
    // HEAD slab is never counted -- see FreeSmall -- hence the > 0 guard.)
    --free_slabs_[cls];
  }
  std::uint32_t idx;
  if (fc > 0) {
    --fc;
    idx = env.Load<std::uint16_t>(layout_.EntryAddr(unit, fc));
    ++seg_stats_.freelist_pops;
  } else {
    idx = bu;
    ++bu;
    ++seg_stats_.bump_carves;
  }
  std::uint64_t flags = state & kSlabInList;
  if (fc == 0 && bu == BlocksPerSlab(cls)) {
    // Exhausted: drop out of the class list until a free replenishes it.
    const Addr next = env.Load<Addr>(header + 8);
    env.Store<Addr>(layout_.ClassHeadAddr(cls), next);
    if (next != 0) {
      env.Store<Addr>(next + 16, 0);
    }
    env.Store<Addr>(header + 8, 0);
    flags = 0;
  }
  env.Store<std::uint64_t>(header, PackSlabState(fc, bu) | flags);
  stats_.bytes_live += bs;
  const Addr slab_base = layout_.SlabBase(unit);
  return slab_base + static_cast<std::uint64_t>(idx) * bs;
}

Addr SegmentHeap::MallocLarge(Env& env, std::uint64_t size) {
  env.Work(8);
  const std::uint64_t bytes = AlignUp(size, layout_.span_bytes());
  const Addr addr = span_provider_.Map(
      env, bytes, config_.hugepage_spans ? PageKind::kHuge2M : PageKind::kSmall4K,
      layout_.span_bytes());
  if (addr == kNullAddr) {
    ++stats_.oom_failures;
    return kNullAddr;
  }
  ++stats_.mmap_calls;
  env.Store<std::uint16_t>(layout_.ClassMapAddr(layout_.UnitIndex(addr)), kTagLarge);
  env.Store<std::uint64_t>(layout_.LargeBytesAddr(layout_.SegIndex(addr)), bytes);
  stats_.bytes_live += bytes;
  ++large_blocks_;
  large_bytes_ += bytes;
  return addr;
}

void SegmentHeap::Free(Env& env, Addr addr) {
  if (addr == kNullAddr) {
    return;
  }
  ++stats_.frees;
  MaybeLock(env);
  env.Work(5);
  const std::uint16_t tag = env.Load<std::uint16_t>(layout_.ClassMapAddr(layout_.UnitIndex(addr)));
  assert(tag != kTagFree && "free of unallocated address");
  if (tag == kTagLarge) {
    const std::uint64_t bytes = env.Load<std::uint64_t>(layout_.LargeBytesAddr(layout_.SegIndex(addr)));
    stats_.bytes_live -= bytes;
    --large_blocks_;
    large_bytes_ -= bytes;
    env.Store<std::uint16_t>(layout_.ClassMapAddr(layout_.UnitIndex(addr)), kTagFree);
    ++stats_.munmap_calls;
    span_provider_.Unmap(env, addr, bytes);
  } else {
    FreeSmall(env, addr, static_cast<std::uint32_t>(tag - kTagClassBase));
  }
  MaybeUnlock(env);
}

void SegmentHeap::FreeSmall(Env& env, Addr addr, std::uint32_t cls) {
  const std::uint64_t bs = classes_.SizeOf(cls);
  const Addr slab_base =
      WholeSegmentClass(cls) ? layout_.SegBase(addr) : layout_.UnitBase(addr);
  const std::uint64_t unit = layout_.UnitIndex(slab_base);
  const Addr header = layout_.HeaderAddr(unit);
  std::uint64_t state = env.Load<std::uint64_t>(header);
  std::uint32_t fc = SlabFreeCount(state);
  const std::uint32_t bu = SlabBumpUsed(state);
  const bool in_list = (state & kSlabInList) != 0;
  const std::uint32_t idx = static_cast<std::uint32_t>((addr - slab_base) / bs);
  env.Store<std::uint16_t>(layout_.EntryAddr(unit, fc),
                           static_cast<std::uint16_t>(idx));
  if (fc >= kSlabInlineEntries) {
    ++seg_stats_.overflow_spills;
  }
  ++fc;
  stats_.bytes_live -= bs;
  const Addr head = env.Load<Addr>(layout_.ClassHeadAddr(cls));
  if (fc == bu && header != head) {
    if (free_slabs_[cls] >= retain_depth_) {
      // Every carved block is free again, another slab is serving the class
      // and the retention cache is full: recycle this one's unit(s) back to
      // the segment.
      RetireSlab(env, cls, unit, header, in_list);
      return;
    }
    // Lazy-retire hysteresis: the class keeps up to retain_depth_ fully-free
    // slabs linked instead of retiring them. Unit-block classes (8-16 KiB)
    // under steady churn would otherwise retire on every free and re-pay the
    // slab-acquire path -- past the slice budget, a span-donation round trip
    // -- on the next malloc; a few hot slabs turn that cycle into a freelist
    // pop. Falls through to the normal re-link + header store below.
    ++free_slabs_[cls];
    ++seg_stats_.slab_retains;
  }
  if (!in_list) {
    // Was exhausted; its freshly freed block makes it servable again.
    env.Store<Addr>(header + 8, head);
    if (head != 0) {
      env.Store<Addr>(head + 16, header);
    }
    env.Store<Addr>(header + 16, 0);
    env.Store<Addr>(layout_.ClassHeadAddr(cls), header);
  }
  env.Store<std::uint64_t>(header, PackSlabState(fc, bu) | kSlabInList);
}

void SegmentHeap::RetireSlab(Env& env, std::uint32_t cls, std::uint64_t unit, Addr header,
                             bool in_list) {
  ++seg_stats_.slab_retires;
  // An unlinked slab (one-block slabs retire straight from the exhausted
  // state) has no neighbours to patch.
  if (in_list) {
    const Addr next = env.Load<Addr>(header + 8);
    const Addr prev = env.Load<Addr>(header + 16);
    if (prev != 0) {
      env.Store<Addr>(prev + 8, next);
    } else {
      env.Store<Addr>(layout_.ClassHeadAddr(cls), next);
    }
    if (next != 0) {
      env.Store<Addr>(next + 16, prev);
    }
  }
  env.Store<std::uint64_t>(header, 0);
  env.Store<Addr>(header + 8, 0);
  env.Store<Addr>(header + 16, 0);
  if (WholeSegmentClass(cls)) {
    for (std::uint64_t u = 0; u < kUnitsPerSegment; ++u) {
      env.Store<std::uint16_t>(layout_.ClassMapAddr(unit + u), kTagFree);
    }
    RetireSegment(env, layout_.SlabBase(unit));
  } else {
    env.Store<std::uint16_t>(layout_.ClassMapAddr(unit), kTagFree);
    ReleaseUnit(env, layout_.SlabBase(unit));
  }
}

std::uint64_t SegmentHeap::AcquireSlab(Env& env, std::uint32_t cls) {
  ++seg_stats_.slab_acquires;
  std::uint64_t unit;
  if (WholeSegmentClass(cls)) {
    const Addr seg = AcquireSegment(env);
    if (seg == kNullAddr) {
      return ~0ull;
    }
    env.Store<std::uint64_t>(layout_.SegDirAddr(layout_.SegIndex(seg)), 0);  // all carved
    unit = layout_.UnitIndex(seg);
    for (std::uint64_t u = 0; u < kUnitsPerSegment; ++u) {
      env.Store<std::uint16_t>(layout_.ClassMapAddr(unit + u),
                               static_cast<std::uint16_t>(kTagClassBase + cls));
    }
  } else {
    const Addr ub = AcquireUnit(env);
    if (ub == kNullAddr) {
      return ~0ull;
    }
    unit = layout_.UnitIndex(ub);
    env.Store<std::uint16_t>(layout_.ClassMapAddr(unit),
                             static_cast<std::uint16_t>(kTagClassBase + cls));
  }
  const Addr header = layout_.HeaderAddr(unit);
  env.Store<std::uint64_t>(header, PackSlabState(0, 0) | kSlabInList);
  env.Store<Addr>(header + 8, 0);
  env.Store<Addr>(header + 16, 0);
  // Callers only acquire when the class list is empty.
  env.Store<Addr>(layout_.ClassHeadAddr(cls), header);
  return unit;
}

Addr SegmentHeap::AcquireUnit(Env& env) {
  const Addr pseg = env.Load<Addr>(layout_.PartialHeadAddr());
  if (pseg != 0) {
    const Addr dir = layout_.SegDirAddr(layout_.SegIndex(pseg));
    std::uint64_t mask = env.Load<std::uint64_t>(dir);
    env.Work(2);  // find-first-set + mask update
    const std::uint32_t u = LowestSetBit(mask);
    mask &= mask - 1;
    if (mask == 0) {
      // Fully carved: leave the partial list (it is the head).
      const Addr next = env.Load<Addr>(dir + 8);
      env.Store<Addr>(layout_.PartialHeadAddr(), next);
      if (next != 0) {
        env.Store<Addr>(layout_.SegDirAddr(layout_.SegIndex(next)) + 16, 0);
      }
      env.Store<Addr>(dir + 8, 0);
    }
    env.Store<std::uint64_t>(dir, mask);
    ++seg_stats_.unit_reuses;
    if (Recording()) {
      c_slab_reuses_->Add();
    }
    return pseg + static_cast<std::uint64_t>(u) * layout_.unit_bytes();
  }
  const Addr seg = AcquireSegment(env);
  if (seg == kNullAddr) {
    return kNullAddr;
  }
  const Addr dir = layout_.SegDirAddr(layout_.SegIndex(seg));
  env.Store<std::uint64_t>(dir, kFullMask & ~1ull);  // unit 0 carved, rest free
  env.Store<Addr>(dir + 8, 0);
  env.Store<Addr>(dir + 16, 0);
  env.Store<Addr>(layout_.PartialHeadAddr(), seg);  // list was empty
  return seg;
}

Addr SegmentHeap::AcquireSegment(Env& env) {
  if (config_.empty_segment_retain > 0) {
    IndexStack pool(layout_.EmptyPoolAddr(), config_.empty_segment_retain);
    std::uint64_t seg = 0;
    if (pool.Pop(env, &seg)) {
      ++seg_stats_.segment_reuses;
      if (Recording()) {
        c_slab_reuses_->Add();
      }
      return seg;
    }
  }
  const Addr seg = span_provider_.Map(
      env, layout_.span_bytes(),
      config_.hugepage_spans ? PageKind::kHuge2M : PageKind::kSmall4K,
      layout_.span_bytes());
  if (seg == kNullAddr) {
    return kNullAddr;
  }
  ++stats_.mmap_calls;
  ++seg_stats_.fresh_segments;
  if (Recording()) {
    c_slab_fresh_->Add();
  }
  return seg;
}

void SegmentHeap::ReleaseUnit(Env& env, Addr unit_base) {
  const Addr seg = layout_.SegBase(unit_base);
  const Addr dir = layout_.SegDirAddr(layout_.SegIndex(seg));
  std::uint64_t mask = env.Load<std::uint64_t>(dir);
  const bool was_carved = mask == 0;
  mask |= 1ull << ((unit_base - seg) / layout_.unit_bytes());
  if (mask == kFullMask) {
    // Fully recycled: leave the partial list and retire the segment.
    if (!was_carved) {
      UnlinkPartial(env, seg, dir);
    }
    env.Store<std::uint64_t>(dir, 0);
    env.Store<Addr>(dir + 8, 0);
    env.Store<Addr>(dir + 16, 0);
    RetireSegment(env, seg);
    return;
  }
  env.Store<std::uint64_t>(dir, mask);
  if (was_carved) {
    // First unit back: rejoin the partial list at the head.
    const Addr old = env.Load<Addr>(layout_.PartialHeadAddr());
    env.Store<Addr>(dir + 8, old);
    env.Store<Addr>(dir + 16, 0);
    if (old != 0) {
      env.Store<Addr>(layout_.SegDirAddr(layout_.SegIndex(old)) + 16, seg);
    }
    env.Store<Addr>(layout_.PartialHeadAddr(), seg);
  }
}

void SegmentHeap::UnlinkPartial(Env& env, Addr seg_base, Addr dir) {
  const Addr next = env.Load<Addr>(dir + 8);
  const Addr prev = env.Load<Addr>(dir + 16);
  if (prev != 0) {
    env.Store<Addr>(layout_.SegDirAddr(layout_.SegIndex(prev)) + 8, next);
  } else {
    env.Store<Addr>(layout_.PartialHeadAddr(), next);
  }
  if (next != 0) {
    env.Store<Addr>(layout_.SegDirAddr(layout_.SegIndex(next)) + 16, prev);
  }
  (void)seg_base;
}

void SegmentHeap::RetireSegment(Env& env, Addr seg_base) {
  if (config_.empty_segment_retain > 0) {
    IndexStack pool(layout_.EmptyPoolAddr(), config_.empty_segment_retain);
    if (pool.Push(env, seg_base)) {
      return;  // parked mapped, ready for the next AcquireSegment
    }
  }
  ++stats_.munmap_calls;
  ++seg_stats_.segments_unmapped;
  // The provider observer reports the unmap to the span directory, which
  // marks the span kRecycled -- a donated segment becomes returnable here.
  span_provider_.Unmap(env, seg_base, layout_.span_bytes());
}

std::uint64_t SegmentHeap::UsableSize(Env& env, Addr addr) {
  const std::uint16_t tag = env.Load<std::uint16_t>(layout_.ClassMapAddr(layout_.UnitIndex(addr)));
  if (tag == kTagLarge) {
    return env.Load<std::uint64_t>(layout_.LargeBytesAddr(layout_.SegIndex(addr)));
  }
  return classes_.SizeOf(static_cast<std::uint32_t>(tag - kTagClassBase));
}

std::int64_t SegmentHeap::ClassifyForRecycle(Env& env, Addr addr) {
  // One load of the read-mostly class map line; written only when a slab is
  // acquired or retired, so it stays resident in client caches.
  const std::uint16_t tag = env.Load<std::uint16_t>(layout_.ClassMapAddr(layout_.UnitIndex(addr)));
  if (tag < kTagClassBase) {
    return -1;
  }
  return static_cast<std::int64_t>(tag - kTagClassBase);
}

HeapOccupancy SegmentHeap::Inspect() const {
  HeapOccupancy in;
  in.bytes_live = stats_.bytes_live;
  in.data_mapped_bytes = span_provider_.mapped_bytes();
  in.meta_mapped_bytes = meta_provider_.mapped_bytes();
  in.large_blocks = large_blocks_;
  in.large_bytes = large_bytes_;
  in.slab_fill_decile.assign(11, 0);
  const SimMemory& mem = machine_->memory();
  if (config_.empty_segment_retain > 0) {
    // IndexStack keeps its depth in the first word at the pool base.
    in.empty_pool_segments = mem.Read<std::uint64_t>(layout_.EmptyPoolAddr());
  }
  // Walk each class's available-slab list. Exhausted slabs are unlinked, so
  // the walk covers exactly the partial population; the full population is
  // the remainder of acquires - retires.
  constexpr std::uint64_t kWalkCap = 4096;
  std::uint64_t walked = 0;
  for (std::uint32_t cls = 0; cls < classes_.num_classes(); ++cls) {
    const std::uint64_t bs = classes_.SizeOf(cls);
    const std::uint32_t bps = BlocksPerSlab(cls);
    Addr header = mem.Read<Addr>(layout_.ClassHeadAddr(cls));
    while (header != 0) {
      if (walked >= kWalkCap) {
        in.truncated = true;
        break;
      }
      ++walked;
      const std::uint64_t state = mem.Read<std::uint64_t>(header);
      const std::uint32_t fc = SlabFreeCount(state);
      const std::uint32_t bu = SlabBumpUsed(state);
      ++in.live_slabs;
      in.free_blocks += fc;
      in.free_block_bytes += fc * bs;
      in.bump_reserve_bytes += static_cast<std::uint64_t>(bps - bu) * bs;
      const std::uint32_t live = bu - fc;
      const std::size_t bucket =
          live >= bps ? 10 : (static_cast<std::uint64_t>(live) * 10) / bps;
      ++in.slab_fill_decile[bucket];
      header = mem.Read<Addr>(header + 8);
    }
  }
  const std::uint64_t total_slabs =
      seg_stats_.slab_acquires - seg_stats_.slab_retires;
  if (!in.truncated && total_slabs > in.live_slabs) {
    in.full_slabs = total_slabs - in.live_slabs;
    in.slab_fill_decile[10] += in.full_slabs;
  }
  return in;
}

AllocatorStats SegmentHeap::stats() const {
  AllocatorStats s = stats_;
  s.mapped_bytes = span_provider_.mapped_bytes() + meta_provider_.mapped_bytes();
  s.mmap_calls = span_provider_.mmap_calls();
  s.munmap_calls = span_provider_.munmap_calls();
  return s;
}

std::unique_ptr<SegmentHeap> MakeSegmentHeap(Machine& machine, Addr heap_base,
                                             Addr meta_base, const ServerHeapConfig& config) {
  return std::make_unique<SegmentHeap>(machine, heap_base, meta_base, config);
}

}  // namespace ngx
