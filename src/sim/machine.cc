#include "src/sim/machine.h"

#include <bit>
#include <cassert>

#include "src/alloc/layout.h"
#include "src/sim/check.h"

namespace ngx {

namespace {

// Buckets a data address into the fabric window it belongs to (layout.h's
// global carve-up) for the per-region dTLB breakdown. The stash provider
// lives at kNgxMetaBase + kHeapWindow, inside the [kNgxMetaBase,
// kNgxFreeBufBase) range, so stash lines count as metadata.
TlbRegion ClassifyTlbRegion(Addr addr) {
  if (addr < kNgxHeapBase || addr >= kWorkloadBase) {
    return TlbRegion::kOther;
  }
  if (addr < kNgxMetaBase) {
    return TlbRegion::kHeap;
  }
  if (addr < kNgxFreeBufBase) {
    return TlbRegion::kMetadata;
  }
  if (addr < kChannelBase) {
    return TlbRegion::kFreeBuf;
  }
  return TlbRegion::kChannel;
}

}  // namespace

MachineConfig MachineConfig::Default(int num_cores) {
  MachineConfig m;
  m.cores.assign(static_cast<std::size_t>(num_cores), CoreConfig{});
  return m;
}

MachineConfig MachineConfig::ScaledWorkstation(int num_cores) {
  MachineConfig m;
  CoreConfig c;
  c.cpi = 0.3;            // a wide modern core on compute
  c.load_overlap = 0.5;   // pointer-chasing workloads expose latency
  c.l1d.size_bytes = 16 * 1024;
  c.l1d.ways = 4;
  c.l2.size_bytes = 128 * 1024;
  c.tlb.l1_small_entries = 32;
  c.tlb.l1_small_ways = 4;
  c.tlb.l1_huge_entries = 16;
  c.tlb.l2_entries = 256;
  m.cores.assign(static_cast<std::size_t>(num_cores), c);
  m.llc = CacheConfig{1024 * 1024, 16, 40};
  m.mem_latency = 260;
  return m;
}

Machine::Machine(const MachineConfig& config) : config_(config), llc_(config.llc) {
  NGX_CHECK(!config.cores.empty() && config.cores.size() <= 8 * sizeof(Cache::LineState::sharers),
            "a machine has 1 to 32 cores: one bit each in the directory's sharer mask");
  cores_.reserve(config.cores.size());
  for (std::size_t i = 0; i < config.cores.size(); ++i) {
    cores_.push_back(std::make_unique<Core>(config.cores[i], static_cast<int>(i)));
  }
}

void Machine::EnableTelemetry(const TelemetryConfig& config) {
  telemetry_.Enable(config);
  pmu_snapshots_ = telemetry_.tracing() && config.pmu_snapshot_interval > 0;
  if (telemetry_.tracing()) {
    for (int c = 0; c < num_cores(); ++c) {
      telemetry_.tracer().SetTrackName(c, "core " + std::to_string(c));
    }
  }
  next_pmu_snapshot_.assign(cores_.size(), 0);
  recorder_snapshots_ = telemetry_.recording() && config.recorder_snapshot_interval > 0;
  next_recorder_snapshot_ = 0;
}

void Machine::MaybePmuSnapshot(int core_id) {
  const Core& c = core(core_id);
  std::uint64_t& next = next_pmu_snapshot_[static_cast<std::size_t>(core_id)];
  if (c.now() < next) {
    return;
  }
  const PmuCounters& p = c.pmu();
  Tracer& tr = telemetry_.tracer();
  const std::string prefix = "core" + std::to_string(core_id) + ".";
  tr.Counter(prefix + "instructions", c.now(), p.instructions);
  tr.Counter(prefix + "llc_misses", c.now(), p.llc_load_misses + p.llc_store_misses);
  tr.Counter(prefix + "dtlb_misses", c.now(), p.dtlb_load_misses + p.dtlb_store_misses);
  tr.Counter(prefix + "alloc_cycles", c.now(), p.alloc_cycles);
  next = c.now() + telemetry_.config().pmu_snapshot_interval;
}

void Machine::MaybeRecorderSnapshot(int core_id) {
  FlightRecorder& rec = telemetry_.recorder();
  if (!rec.has_snapshot_source()) {
    return;
  }
  const Core& c = core(core_id);
  if (c.now() < next_recorder_snapshot_) {
    return;
  }
  next_recorder_snapshot_ = c.now() + telemetry_.config().recorder_snapshot_interval;
  const HeapSnapshot* snap = rec.TakeSnapshot(c.now(), /*on_demand=*/false);
  if (snap == nullptr || !telemetry_.tracing()) {
    return;
  }
  // Counter tracks next to the PMU samples: one time series per shard for
  // the occupancy figures the viewer can plot. Fragmentation goes out in
  // basis points (the counter channel is integer-valued).
  Tracer& tr = telemetry_.tracer();
  for (const HeapShardSnapshot& s : snap->shards) {
    const std::string prefix = "shard" + std::to_string(s.shard) + ".";
    tr.Counter(prefix + "bytes_live", snap->cycle, s.heap.bytes_live);
    tr.Counter(prefix + "data_mapped_bytes", snap->cycle, s.heap.data_mapped_bytes);
    tr.Counter(prefix + "free_spans", snap->cycle, s.free_spans);
    tr.Counter(prefix + "external_frag_bp", snap->cycle,
               static_cast<std::uint64_t>(s.external_frag_pct * 100.0));
  }
}

int Machine::OwnerOf(Addr line) const {
  const Cache::LineState* e = llc_.Find(LineBase(line));
  return e != nullptr && e->modified ? std::countr_zero(e->sharers) : -1;
}

std::uint32_t Machine::SharersOf(Addr line) const {
  const Cache::LineState* e = llc_.Find(LineBase(line));
  return e == nullptr ? 0 : e->sharers;
}

void Machine::ChargeSyscall(int core_id) {
  Core& c = core(core_id);
  c.NoteInstructions(1);
  c.AddCycles(static_cast<double>(config_.mmap_syscall_cycles));
}

PmuCounters Machine::TotalPmu() const {
  PmuCounters total;
  for (const auto& c : cores_) {
    total += c->pmu();
  }
  return total;
}

std::uint64_t Machine::LookupTlb(int core_id, Addr addr, AccessType type) {
  Core& c = core(core_id);
  const std::uint64_t page_bytes = address_map_.PageBytesFor(addr);
  const Tlb::Result r = c.tlb().Lookup(addr, page_bytes);
  if (r.l1_miss) {
    ++c.pmu().dtlb_l1_misses;
  }
  const auto region = static_cast<std::size_t>(ClassifyTlbRegion(addr));
  ++c.pmu().dtlb_region_lookups[region];
  if (r.walk) {
    ++c.pmu().dtlb_region_walks[region];
    if (type == AccessType::kLoad) {
      ++c.pmu().dtlb_load_misses;
    } else {
      ++c.pmu().dtlb_store_misses;
    }
  }
  return r.extra_cycles;
}

std::uint64_t Machine::Access(int core_id, Addr addr, std::uint32_t size, AccessType type) {
  assert(size > 0);
  Core& c = core(core_id);

  const Addr first_line = LineBase(addr);
  const Addr last_line = LineBase(addr + size - 1);

  std::uint64_t raw = 0;
  Addr prev_page = ~0ull;
  for (Addr line = first_line; line <= last_line; line += kCacheLineBytes) {
    // One PMU memory instruction per line touched.
    c.NoteInstructions(1);
    if (type == AccessType::kLoad) {
      ++c.pmu().loads;
    } else {
      ++c.pmu().stores;
      if (type == AccessType::kAtomicRmw) {
        ++c.pmu().atomic_rmws;
        ++c.pmu().loads;  // RMW reads too
      }
    }
    const Addr page = PageBase(line);
    std::uint64_t line_lat = 0;
    if (page != prev_page) {
      line_lat += LookupTlb(core_id, line, type);
      prev_page = page;
    }
    line_lat += AccessLine(core_id, line, type);
    raw += line_lat;
  }
  if (config_.next_line_prefetch) {
    PrefetchLine(core_id, last_line + kCacheLineBytes);
  }

  if (type == AccessType::kAtomicRmw) {
    raw += config_.atomic_rmw_latency;
  }
  c.ChargeAccess(type, raw);
  if (pmu_snapshots_) {
    MaybePmuSnapshot(core_id);
  }
  if (recorder_snapshots_) {
    MaybeRecorderSnapshot(core_id);
  }
  return raw;
}

std::uint64_t Machine::AccessLine(int core_id, Addr line, AccessType type) {
  Core& c = core(core_id);
  const bool is_write = type != AccessType::kLoad;
  const std::uint32_t my_bit = 1u << core_id;
  std::uint64_t lat = c.l1d().config().hit_latency;

  // A write makes this core the owner and the only sharer. A read hit in the
  // private hierarchy never changes the directory.
  auto take_ownership = [&](Cache::LineState& e) {
    if (e.modified && e.sharers == my_bit) {
      return;
    }
    if (InvalidateOthers(core_id, line, e) > 0) {
      lat += config_.invalidate_latency;
      if (type == AccessType::kAtomicRmw) {
        lat += config_.atomic_remote_extra;
      }
    }
    e.modified = true;
    e.sharers = my_bit;
  };

  // L1 hit path.
  if (Cache::LineState* l1 = c.l1d().Access(line)) {
    if (is_write) {
      l1->dirty = true;
      take_ownership(LlcLine(line));
    }
    return lat;
  }
  if (type == AccessType::kLoad) {
    ++c.pmu().l1d_load_misses;
  } else {
    ++c.pmu().l1d_store_misses;
  }

  // L2 hit path.
  if (c.has_l2()) {
    lat += c.l2()->config().hit_latency;
    if (c.l2()->Access(line) != nullptr) {
      if (is_write) {
        take_ownership(LlcLine(line));
      }
      FillPrivate(core_id, line, is_write);
      return lat;
    }
    if (type == AccessType::kLoad) {
      ++c.pmu().l2_load_misses;
    } else {
      ++c.pmu().l2_store_misses;
    }
  }

  // Beyond the private hierarchy: the shared LLC and the directory in its
  // lines. This core holds no copy, so a modified line has a remote owner.
  Cache::LineState* e = llc_.Find(line);
  if (e != nullptr && e->modified) {
    // Served cache-to-cache from the remote owner (HITM). Counts as an LLC
    // miss, as perf reports it. Transfers inside one core cluster are
    // cheaper when the config models clustered interconnects.
    const int owner = std::countr_zero(e->sharers);
    const bool same_cluster =
        config_.cluster_cores > 0 && config_.same_cluster_transfer_latency > 0 &&
        core_id / config_.cluster_cores == owner / config_.cluster_cores;
    lat += same_cluster ? config_.same_cluster_transfer_latency
                        : config_.remote_transfer_latency;
    if (type == AccessType::kAtomicRmw) {
      lat += config_.atomic_remote_extra;
    }
    ++c.pmu().remote_hitm;
    if (type == AccessType::kLoad) {
      if (config_.count_hitm_as_llc_miss) {
        ++c.pmu().llc_load_misses;
      }
      DowngradeOwner(owner, line);
      e->modified = false;
      e->sharers |= my_bit;
    } else {
      if (config_.count_hitm_as_llc_miss) {
        ++c.pmu().llc_store_misses;
      }
      if (DropFromPrivate(owner, line)) {
        e->dirty = true;
      }
      ++core(owner).pmu().invalidations_received;
      ++c.pmu().invalidations_sent;
      e->sharers = my_bit;  // still modified, now by this core
    }
  } else if (e != nullptr) {
    llc_.Touch(e);
    lat += config_.llc.hit_latency;
    if (is_write) {
      take_ownership(*e);
    } else {
      e->sharers |= my_bit;
    }
  } else {
    // DRAM fill.
    lat += config_.llc.hit_latency;
    const std::uint64_t mem_lat = c.config().mem_latency_override != 0
                                      ? c.config().mem_latency_override
                                      : config_.mem_latency;
    lat += mem_lat;
    ++mem_reads_;
    if (type == AccessType::kLoad) {
      ++c.pmu().llc_load_misses;
    } else {
      ++c.pmu().llc_store_misses;
    }
    HandleLlcEviction(llc_.Insert(line, {false, is_write, my_bit}));
  }

  FillPrivate(core_id, line, is_write);
  return lat;
}

void Machine::PrefetchLine(int core_id, Addr line) {
  Core& c = core(core_id);
  if (c.l1d().Contains(line) || (c.has_l2() && c.l2()->Contains(line))) {
    return;
  }
  const std::uint32_t my_bit = 1u << core_id;
  Cache::LineState* e = llc_.Find(line);
  if (e == nullptr) {
    HandleLlcEviction(llc_.Insert(line, {false, false, my_bit}));
  } else if (e->modified) {
    return;  // never steal remotely-owned lines speculatively
  } else {
    llc_.Touch(e);
    e->sharers |= my_bit;
  }
  FillPrivate(core_id, line, false);
}

void Machine::FillPrivate(int core_id, Addr line, bool dirty) {
  Core& c = core(core_id);
  if (c.has_l2() && !c.l2()->Contains(line)) {
    HandlePrivateEviction(core_id, c.l2()->Insert(line, {}), /*outer_level=*/true);
  }
  if (!c.l1d().Contains(line)) {
    HandlePrivateEviction(core_id, c.l1d().Insert(line, {dirty, false, 0}),
                          /*outer_level=*/!c.has_l2());
  } else if (dirty) {
    c.l1d().MarkDirty(line);
  }
}

void Machine::HandlePrivateEviction(int core_id, const Cache::Eviction& ev, bool outer_level) {
  if (!ev.valid) {
    return;
  }
  Core& c = core(core_id);
  if (!outer_level) {
    // L1 eviction under an inclusive L2: merge the dirty bit downward.
    if (ev.dirty) {
      if (c.has_l2() && c.l2()->Contains(ev.line)) {
        c.l2()->MarkDirty(ev.line);
      } else {
        WritebackToLlc(ev.line);
      }
    }
    return;
  }
  // Outer private level evicted: the line leaves this core entirely.
  bool dirty = ev.dirty;
  if (c.has_l2()) {
    bool l1_dirty = false;
    if (c.l1d().Invalidate(ev.line, &l1_dirty)) {
      dirty |= l1_dirty;
    }
  }
  Cache::LineState& e = LlcLine(ev.line);
  e.sharers &= ~(1u << core_id);
  e.modified = e.modified && e.sharers != 0;  // an owner is the only sharer
  if (dirty) {
    ++c.pmu().writebacks;
    e.dirty = true;
  }
}

bool Machine::DropFromPrivate(int core_id, Addr line) {
  Core& c = core(core_id);
  bool dirty = false;
  bool d = false;
  if (c.l1d().Invalidate(line, &d)) {
    dirty |= d;
  }
  if (c.has_l2() && c.l2()->Invalidate(line, &d)) {
    dirty |= d;
  }
  return dirty;
}

void Machine::DowngradeOwner(int owner, Addr line) {
  // The owner keeps a clean shared copy; its dirty data is written back to
  // the LLC so the requester (and others) can read it.
  Core& o = core(owner);
  o.l1d().CleanLine(line);
  if (o.has_l2()) {
    o.l2()->CleanLine(line);
  }
  ++o.pmu().writebacks;
  WritebackToLlc(line);
}

int Machine::InvalidateOthers(int keep_core, Addr line, Cache::LineState& e) {
  int dropped = 0;
  std::uint32_t others = e.sharers & ~(1u << keep_core);
  for (int o = 0; others != 0; ++o, others >>= 1) {
    if ((others & 1u) == 0) {
      continue;
    }
    if (DropFromPrivate(o, line)) {
      e.dirty = true;
    }
    ++core(o).pmu().invalidations_received;
    ++dropped;
  }
  core(keep_core).pmu().invalidations_sent += static_cast<std::uint64_t>(dropped);
  return dropped;
}

Cache::LineState& Machine::LlcLine(Addr line) {
  Cache::LineState* e = llc_.Find(line);
  assert(e != nullptr && "inclusion: every privately cached line is in the LLC");
  return *e;
}

void Machine::HandleLlcEviction(const Cache::Eviction& ev) {
  if (!ev.valid) {
    return;
  }
  // Inclusive LLC: back-invalidate every private copy of the evicted line.
  bool dirty = ev.dirty;
  std::uint32_t sharers = ev.sharers;
  for (int o = 0; sharers != 0; ++o, sharers >>= 1) {
    if ((sharers & 1u) != 0) {
      dirty |= DropFromPrivate(o, ev.line);
      ++core(o).pmu().invalidations_received;
    }
  }
  if (dirty) {
    ++mem_writes_;
  }
}

}  // namespace ngx
