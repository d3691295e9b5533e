#include "src/core/control_plane.h"

#include <algorithm>
#include <cassert>

#include "src/alloc/layout.h"
#include "src/sim/check.h"

namespace ngx {

namespace {

// A run of spans on the wire (kDonateSpan and kRequestSpans replies,
// kOfferSpans and kReturnSpan arguments): the span-aligned base with the span
// count in the low 16 bits, which span alignment leaves free. 0 = no run.
constexpr std::uint64_t kRunSpansMask = 0xffff;

struct SpanRun {
  Addr base;
  std::uint64_t spans;
};

SpanRun UnpackRun(std::uint64_t word) { return {word & ~kRunSpansMask, word & kRunSpansMask}; }

std::uint64_t PackRun(Addr base, std::uint64_t spans) {
  assert((base & kRunSpansMask) == 0 && spans <= kRunSpansMask && "span run overflows its word");
  return base | spans;
}

// Recycled granted runs a draining shard returns home per epoch.
constexpr int kEpochMigrateMoves = 8;

}  // namespace

ControlPlane::ControlPlane(Machine& machine, OffloadFabric& fabric, const NgxConfig& config,
                           const TenantPlan& plan,
                           const std::vector<std::unique_ptr<ServerHeap>>& heaps)
    : machine_(&machine),
      fabric_(&fabric),
      config_(config),
      plan_(plan),
      heaps_(heaps),
      directory_(kNgxHeapBase, config.heap_window ? config.heap_window : kHeapWindow,
                 kNgxSpanBytes, static_cast<int>(heaps.size())),
      // Spans move in whole map units: a 2 MiB-backed span grant must be
      // 2 MiB-sized and -aligned or the recipient's provider cannot map it --
      // unless packing is on, in which case maps are span-granular again (the
      // shared hugepage ledger keeps frames straddling a donation boundary
      // backed) and the grant unit shrinks back to one span.
      map_page_((config.hugepage_spans && !config.hugepage_packing) ? kHugePageBytes
                                                                    : kSmallPageBytes),
      grant_unit_spans_(AlignUp(kNgxSpanBytes, map_page_) / kNgxSpanBytes),
      grant_align_(std::max(kNgxSpanBytes, map_page_)) {
  NGX_CHECK(!config.span_donation || num_shards() <= 256,
            "kDonateSpan packs the requester shard into 8 bits");
  for (int s = 0; s < num_shards(); ++s) {
    // Host-side bookkeeping mirror of this shard's data mappings; the
    // observer must never touch simulated state.
    provider(s).set_observer([this, s](Addr addr, std::uint64_t bytes, bool is_map) {
      if (is_map) {
        directory_.NoteMapped(s, addr, bytes);
      } else {
        directory_.NoteUnmapped(s, addr, bytes);
      }
    });
  }
  if (rebalancing()) {
    // Two tick paths into the same guard (DESIGN.md §8). Busy shards tick
    // from the engines' post-drain hooks: every sync request and DrainAll
    // ends in a tick. Quiet shards, with no drains to hook, tick from a
    // periodic per-shard timer, which also reaches a server core whose
    // clock runs ahead of every client -- so a shard with no traffic still
    // pulls refills, sheds surplus and sends recycled spans home within one
    // period.
    for (int s = 0; s < num_shards(); ++s) {
      fabric.set_post_drain_hook(s, [this, s](Env& server_env) { WatermarkTick(server_env, s); });
      timer_hook_ids_.push_back(machine.AddTimerHook(
          fabric.server_cores()[static_cast<std::size_t>(s)], config.watermark_timer_cycles,
          [this, s] {
            Env env = ServerEnv(s);
            WatermarkTick(env, s);
          }));
    }
  }
  if (adaptive()) {
    // Epoch decisions are fleet-global (they read the whole traffic matrix),
    // so one controller clock avoids N racing epoch boundaries. It starts on
    // shard 0's server core; EpochTick re-pins it (Machine::MoveTimerHook)
    // when the ticker shard parks, and the callback reads the elected shard
    // at fire time.
    NGX_CHECK(config.epoch_cycles > 0, "adaptive routing needs an epoch length");
    fabric.set_epoch_tracking(true);
    epoch_timer_id_ =
        machine.AddTimerHook(fabric.server_cores().front(), config.epoch_cycles, [this] {
          Env env = ServerEnv(epoch_ticker_shard_);
          EpochTick(env);
        });
    timer_hook_ids_.push_back(epoch_timer_id_);
  }
}

ControlPlane::~ControlPlane() {
  for (const int id : timer_hook_ids_) {
    machine_->RemoveTimerHook(id);
  }
  for (int s = 0; s < num_shards(); ++s) {
    fabric_->set_post_drain_hook(s, nullptr);
    provider(s).set_observer(nullptr);
  }
}

void ControlPlane::NoteSpanMove(Env& server_env, bool returned) {
  Telemetry& tel = machine_->telemetry();
  if (tel.tracing()) {
    tel.tracer().Instant(returned ? "return_span" : "donate_span", server_env.core_id(),
                         server_env.now());
  }
}

std::uint64_t ControlPlane::NeededGrantSpans(std::uint64_t size) const {
  std::uint64_t map_bytes;
  if (size <= kNgxSmallMax) {
    // Small classes carve whole segments (segment heap) or bump-carve whole
    // spans (aggregated); either way one grant unit refills a class.
    map_bytes = grant_unit_spans_ * kNgxSpanBytes;
  } else if (config_.heap_kind == HeapKind::kAggregated) {
    // Aggregated large regions carry a page-sized header before user bytes.
    map_bytes = AlignUp(size, kSmallPageBytes) + kSmallPageBytes;
  } else {
    // The segment heap maps span-aligned multiples of the map page.
    map_bytes = AlignUp(AlignUp(size, kNgxSpanBytes), map_page_);
  }
  const std::uint64_t spans = AlignUp(map_bytes, kNgxSpanBytes) / kNgxSpanBytes;
  return AlignUp(spans, grant_unit_spans_);
}

int ControlPlane::PickDonor(int shard, const std::vector<bool>* refused) const {
  int best = -1;
  std::uint64_t best_free = 0;
  for (int s = 0; s < num_shards(); ++s) {
    if (s == shard || (refused != nullptr && (*refused)[static_cast<std::size_t>(s)])) {
      continue;
    }
    const std::uint64_t f = directory_.free_spans(s);
    if (f > best_free) {  // ties keep the lower shard id (deterministic)
      best_free = f;
      best = s;
    }
  }
  return best;
}

std::uint64_t ControlPlane::PullSpans(Env& server_env, int shard, int donor, OffloadOp op,
                                      std::uint64_t want) {
  // The grant comes back as one run word.
  NGX_CHECK(want <= kRunSpansMask, "span request too large for the donation protocol");
  const std::uint64_t arg = (want << 8) | static_cast<std::uint64_t>(static_cast<unsigned>(shard));
  const std::uint64_t resp = fabric_->SyncRequest(server_env, donor, op, arg);
  if (resp == 0) {
    return 0;
  }
  const SpanRun run = UnpackRun(resp);
  provider(shard).AddRange(run.base, run.spans * kNgxSpanBytes);
  return run.spans;
}

Addr ControlPlane::MallocWithDonation(Env& server_env, int shard, std::uint64_t size) {
  if (!config_.span_donation) {
    return kNullAddr;
  }
  // Reaching this point means a malloc already failed and is paying the
  // refill round trip inline -- exactly what watermark rebalancing exists to
  // make rare.
  ++inline_fallbacks_;
  ServerHeap& heap = *heaps_[static_cast<std::size_t>(shard)];
  const std::uint64_t need = NeededGrantSpans(size);
  std::vector<bool> refused(heaps_.size(), false);
  // Each round grafts at least one grant unit onto the partition (donors
  // fall back to a single unit when they cannot spare `need` contiguous
  // spans; successive tail trims from one donor coalesce into a contiguous
  // range), or refuses an empty donor. Bounded by work, not luck.
  const std::uint64_t max_rounds = need / grant_unit_spans_ + heaps_.size() + 1;
  for (std::uint64_t round = 0; round < max_rounds; ++round) {
    // Cheapest first: the shard's own recycled spans need no fabric message.
    const Addr self = directory_.TakeRecycled(shard, need, grant_align_);
    if (self != kNullAddr) {
      provider(shard).AddRange(self, need * kNgxSpanBytes);
    } else {
      const int donor = PickDonor(shard, &refused);
      if (donor < 0) {
        break;  // every shard is dry: a true fabric-wide OOM
      }
      const std::uint64_t got = PullSpans(server_env, shard, donor, OffloadOp::kDonateSpan, need);
      if (got == 0) {
        refused[static_cast<std::size_t>(donor)] = true;
        continue;
      }
      if (got < need) {
        continue;  // partial grant: accrete more before retrying the malloc
      }
    }
    const Addr a = heap.Malloc(server_env, size);
    if (a != kNullAddr) {
      return a;
    }
  }
  // Partial grants may have accreted enough by the time the loop exits.
  return heap.Malloc(server_env, size);
}

std::uint64_t ControlPlane::HandleSpanOp(Env& server_env, int shard, OffloadOp op,
                                         std::uint64_t arg) {
  if (op == OffloadOp::kDonateSpan || op == OffloadOp::kRequestSpans) {
    // Same donor-side carve whether the pull is a malloc-path fallback or
    // the rebalancer staying ahead of its low mark.
    const int requester = static_cast<int>(arg & 0xff);
    NGX_CHECK(requester >= 0 && requester < num_shards() && requester != shard,
              "malformed donation request");
    return CarveSpans(server_env, shard, requester, arg >> 8);
  }
  // kOfferSpans and kReturnSpan: the sender already moved directory
  // ownership; the recipient only grafts the range onto its provider window.
  const SpanRun run = UnpackRun(arg);
  NGX_CHECK(run.spans > 0, "malformed span graft");
  NGX_CHECK(directory_.OwnerOfAddr(run.base) == shard,
            "span graft for a range the shard does not own");
  server_env.Work(6);
  provider(shard).AddRange(run.base, run.spans * kNgxSpanBytes);
  return 1;
}

std::uint64_t ControlPlane::CarveSpans(Env& server_env, int donor, int to, std::uint64_t want) {
  // Every cross-shard ownership transfer (kDonateSpan, kRequestSpans,
  // surplus offers) funnels through here. Donor-side bookkeeping:
  // recycled-pool scan plus directory update.
  server_env.Work(12);
  for (const std::uint64_t n : {want, grant_unit_spans_}) {
    if (n == 0 || n > want) {
      continue;
    }
    // Recycled spans first (they are already carved out of the window);
    // otherwise trim the unconsumed tail of the donor's window.
    Addr base = directory_.TakeRecycled(donor, n, grant_align_);
    if (base == kNullAddr) {
      base = provider(donor).TrimTail(n * kNgxSpanBytes, grant_align_);
    }
    if (base == kNullAddr) {
      continue;
    }
    directory_.TransferRange(base, n, donor, to);
    NoteSpanMove(server_env, /*returned=*/false);
    return PackRun(base, n);
  }
  return 0;
}

void ControlPlane::WatermarkTick(Env& server_env, int shard) {
  // Ticks fire from drain hooks, and a tick's own fabric messages trigger
  // the recipient's drain hook: the guard keeps exactly one tick in flight
  // (and makes the recursion depth bounded by construction).
  if (in_rebalance_) {
    return;
  }
  in_rebalance_ = true;
  const ShardWatermarks marks = plan_.shards[static_cast<std::size_t>(shard)];
  // A few moves per tick keep any pending request's queue wait bounded;
  // steady drain traffic supplies plenty of ticks.
  for (int moves = 0; moves < 4; ++moves) {
    const std::uint64_t free = directory_.free_spans(shard);
    bool acted = false;
    if (free < marks.low) {
      // Staying ahead of partition exhaustion beats everything else.
      acted = TryRefill(server_env, shard, free);
    } else if (free > marks.high) {
      // Recycled away spans flow home first; native surplus is offered to
      // peers below their low mark.
      acted = TryReturnHome(server_env, shard);
      if (!acted) {
        acted = TryOfferSurplus(server_env, shard, free);
      }
    }
    if (!acted) {
      // No fabric traffic warranted: keep the shard's own provider stocked
      // from its recycled pool so steady-state span reuse stays off the
      // malloc path too.
      acted = TryRestockLocal(server_env, shard);
    }
    if (!acted) {
      break;
    }
    ++rebalance_moves_;
  }
  in_rebalance_ = false;
}

bool ControlPlane::TryRestockLocal(Env& server_env, int shard) {
  // Once the virgin provider window is consumed, every span grant would
  // otherwise fail first and pay the inline fallback's TakeRecycled detour
  // on the malloc path. Grafting recycled spans back during idle time keeps
  // the provider's unconsumed tail at one grant unit above the low mark.
  const std::uint64_t target =
      (plan_.shards[static_cast<std::size_t>(shard)].low + grant_unit_spans_) * kNgxSpanBytes;
  if (provider(shard).FreeBytes() >= target) {
    return false;
  }
  const Addr base = directory_.TakeRecycled(shard, grant_unit_spans_, grant_align_);
  if (base == kNullAddr) {
    return false;  // nothing contiguous recycled; refill handles true scarcity
  }
  server_env.Work(4);
  provider(shard).AddRange(base, grant_unit_spans_ * kNgxSpanBytes);
  return true;
}

bool ControlPlane::TryRefill(Env& server_env, int shard, std::uint64_t free) {
  // Refill to one grant unit above the low mark so the next few grants do
  // not immediately re-trigger the pull.
  const std::uint64_t want =
      AlignUp(plan_.shards[static_cast<std::size_t>(shard)].low + grant_unit_spans_ - free,
              grant_unit_spans_);
  const int donor = PickDonor(shard, nullptr);
  // Anti-ping-pong: a donation must not push the donor below its OWN low
  // mark (the donor's tenant contract, not the requester's), or the refill
  // would bounce straight back next tick.
  if (donor < 0 || directory_.free_spans(donor) <
                       plan_.shards[static_cast<std::size_t>(donor)].low + want) {
    return false;
  }
  return PullSpans(server_env, shard, donor, OffloadOp::kRequestSpans, want) > 0;
}

bool ControlPlane::TryReturnHome(Env& server_env, int shard) {
  if (directory_.away_spans(shard) == 0) {
    return false;
  }
  const std::uint64_t free = directory_.free_spans(shard);
  const std::uint64_t low = plan_.shards[static_cast<std::size_t>(shard)].low;
  if (free <= low) {
    return false;
  }
  // Never return so much that the shard drops below its own low mark.
  const std::uint64_t max_units = (free - low) / grant_unit_spans_;
  return max_units > 0 && ReturnRunHome(server_env, shard, max_units);
}

bool ControlPlane::ReturnRunHome(Env& server_env, int shard, std::uint64_t max_units) {
  // The run travels as one run word, which caps its span count.
  max_units = std::min(max_units, kRunSpansMask / grant_unit_spans_);
  int home = -1;
  std::uint64_t n = 0;
  const Addr base = directory_.FindRecycledAwayRun(shard, grant_unit_spans_, max_units,
                                                   grant_align_, &home, &n);
  if (base == kNullAddr) {
    return false;
  }
  directory_.ReturnRange(base, n, shard);
  fabric_->SyncRequest(server_env, home, OffloadOp::kReturnSpan, PackRun(base, n));
  NoteSpanMove(server_env, /*returned=*/true);
  return true;
}

bool ControlPlane::TryOfferSurplus(Env& server_env, int shard, std::uint64_t free) {
  // Push only when a peer is actually short of ITS OWN low mark (per-tenant
  // watermarks make "needy" a per-shard judgment): the lowest free count
  // below its mark, ties to the lower shard id (deterministic).
  int needy = -1;
  std::uint64_t needy_free = ~0ull;
  for (int s = 0; s < num_shards(); ++s) {
    if (s == shard) {
      continue;
    }
    const std::uint64_t f = directory_.free_spans(s);
    if (f < plan_.shards[static_cast<std::size_t>(s)].low && f < needy_free) {
      needy_free = f;
      needy = s;
    }
  }
  if (needy < 0) {
    return false;
  }
  const std::uint64_t want =
      AlignUp(plan_.shards[static_cast<std::size_t>(needy)].low + grant_unit_spans_ - needy_free,
              grant_unit_spans_);
  const std::uint64_t surplus =
      (free - plan_.shards[static_cast<std::size_t>(shard)].high) / grant_unit_spans_ *
      grant_unit_spans_;
  const std::uint64_t n = std::min(want, surplus);
  if (n == 0) {
    return false;
  }
  const std::uint64_t carved = CarveSpans(server_env, shard, needy, n);
  if (carved == 0) {
    return false;
  }
  fabric_->SyncRequest(server_env, needy, OffloadOp::kOfferSpans, carved);
  return true;
}

void ControlPlane::DrainTowardParked(int shard) {
  // Unlike TryReturnHome there is no low-mark retention: the shard is going
  // dormant, so every fully-recycled granted run flows back to its home
  // shard's provider window. Runs still holding live blocks cannot move --
  // their frees keep reaching this shard via the span directory while it is
  // parked, and they become migratable once recycled.
  Env senv = ServerEnv(shard);
  int moves = 0;
  while (config_.span_donation && moves < kEpochMigrateMoves &&
         ReturnRunHome(senv, shard, /*max_units=*/~0ull)) {
    ++moves;
    ++rebalance_moves_;
  }
  // A short batch means nothing migratable remains.
  if (moves < kEpochMigrateMoves) {
    fabric_->set_shard_state(shard, ShardState::kParked);
    ++shards_parked_;
  }
}

void ControlPlane::EpochTick(Env& env) {
  // Migration traffic drains recipient rings, whose post-drain hooks would
  // start watermark ticks mid-epoch; share the rebalancer's guard so epoch
  // and watermark work never interleave.
  if (in_rebalance_) {
    return;
  }
  in_rebalance_ = true;
  ++routing_epochs_;
  const std::uint64_t total_ops = fabric_->TakeEpoch(&epoch_scratch_);
  const int nsh = fabric_->num_shards();
  std::vector<bool> woke(static_cast<std::size_t>(nsh), false);

  // 1. Step draining shards toward kParked, a bounded batch per epoch.
  for (int s = 0; s < nsh; ++s) {
    if (fabric_->shard_state(s) == ShardState::kDraining) {
      DrainTowardParked(s);
    }
  }

  // 2. Wake on queue-depth pressure: a parked shard whose own ring backlog
  // crossed the threshold wakes (frees piling up mean its partition is hot
  // again); a saturated busiest active shard buys one extra shard of
  // headroom per epoch.
  std::uint64_t busiest = 0;
  bool slack = false;
  for (int s = 0; s < nsh; ++s) {
    if (fabric_->shard_state(s) != ShardState::kActive) {
      continue;
    }
    busiest = std::max(busiest, fabric_->QueueDepth(s));
    // An active shard already below break-even is spare capacity the policy
    // can re-pack onto; waking more shards would not relieve anything.
    if (config_.park_threshold_ops > 0 &&
        epoch_scratch_.ColTotal(s) < config_.park_threshold_ops) {
      slack = true;
    }
  }
  bool pressure_spent = false;
  for (int s = 0; s < nsh; ++s) {
    if (fabric_->shard_state(s) != ShardState::kParked) {
      continue;
    }
    const bool own = fabric_->QueueDepth(s) >= config_.wake_queue_depth;
    const bool pressure = !pressure_spent && !slack && busiest >= config_.wake_queue_depth;
    if (!own && !pressure) {
      continue;
    }
    fabric_->set_shard_state(s, ShardState::kActive);
    woke[static_cast<std::size_t>(s)] = true;
    ++shards_woken_;
    if (!own) {
      pressure_spent = true;
    }
  }

  // 3. Park below break-even: drain the coldest active shard under the
  // threshold. The fleet shrinks at most ONE shard per epoch -- a single
  // low-traffic epoch (warm-up, a phase boundary) must not collapse the
  // whole fleet before the matrix has anything to say -- and never parks
  // its last active shard, which must keep serving mallocs and hosting
  // this controller. A shard woken this epoch has had no chance to earn its
  // keep yet and is exempt until the next close.
  if (config_.park_threshold_ops > 0 && fabric_->num_active_shards() > 1) {
    int coldest = -1;
    std::uint64_t coldest_ops = 0;
    for (int s = 0; s < nsh; ++s) {
      if (fabric_->shard_state(s) != ShardState::kActive || woke[static_cast<std::size_t>(s)]) {
        continue;
      }
      const std::uint64_t ops = epoch_scratch_.ColTotal(s);
      if (ops < config_.park_threshold_ops && (coldest < 0 || ops < coldest_ops)) {
        coldest = s;
        coldest_ops = ops;
      }
    }
    if (coldest >= 0) {
      fabric_->set_shard_state(coldest, ShardState::kDraining);
      DrainTowardParked(coldest);
    }
  }

  // 3b. Controller election: if the shard whose server core carries the
  // epoch timer just left the active set (parked or draining), hand the
  // ticker to the lowest-id active shard. MoveTimerHook mutates the hook's
  // core in place -- legal from inside this very callback -- and keeps its
  // next_due, so the epoch cadence never skips a beat.
  if (fabric_->shard_state(epoch_ticker_shard_) != ShardState::kActive) {
    for (int s = 0; s < nsh; ++s) {
      if (fabric_->shard_state(s) == ShardState::kActive) {
        epoch_ticker_shard_ = s;
        machine_->MoveTimerHook(epoch_timer_id_,
                                fabric_->server_cores()[static_cast<std::size_t>(s)]);
        break;
      }
    }
  }

  // 4. Feed the policy the closed matrix against the post-decision fleet, so
  // re-packing only targets shards that will actually serve mallocs.
  for (int s = 0; s < nsh; ++s) {
    epoch_scratch_.active[static_cast<std::size_t>(s)] =
        fabric_->shard_state(s) == ShardState::kActive ? 1 : 0;
  }
  fabric_->routing().Observe(epoch_scratch_);
  const std::uint64_t moves_total = fabric_->routing().client_moves();
  const std::uint64_t epoch_moves = moves_total - last_client_moves_;
  last_client_moves_ = moves_total;

  // 5. Close the books. Parked capacity accrues for the epoch ahead: every
  // non-active shard's core is released from the malloc path for the next
  // epoch_cycles (the §3.1.1 break-even dividend).
  const int active_now = fabric_->num_active_shards();
  const int parked_now = nsh - active_now;
  parked_core_cycles_ += config_.epoch_cycles * static_cast<std::uint64_t>(parked_now);
  FleetEpoch fe;
  fe.cycle = env.now();
  fe.epoch_ops = total_ops;
  fe.active_shards = active_now;
  fe.parked_shards = parked_now;
  fe.client_moves = epoch_moves;
  fleet_timeline_.push_back(fe);
  in_rebalance_ = false;
}

}  // namespace ngx
