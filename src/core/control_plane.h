// The allocator's control plane: every decision about which shard holds
// which spans and which shards serve (DESIGN.md §7, §8, §14). Built only for
// multi-shard fabrics; a single shard owns its whole window and has no fleet
// to resize.
//
// Span economy. Shards start from equal slices of the NextGen heap window,
// and ownership then moves at span granularity. The SpanDirectory holds it
// host-side on the allocator cores, so resolving a free's owner never bounces
// cache lines between application cores. With config.span_donation a dry
// shard pulls free spans from the best-stocked donor over kDonateSpan, inline
// on the malloc that found the partition dry. With config.span_low_mark set,
// a background watermark rebalancer keeps that round trip off the malloc
// path: shards below their low mark pull refills (kRequestSpans), shards
// above their high mark return fully-recycled away spans to their home slice
// (kReturnSpan) and offer surplus to starved peers (kOfferSpans), so the
// inline kDonateSpan becomes the rare fallback. Busy shards tick from their
// post-drain hook; quiet shards, with no drains to hook, tick from a periodic
// timer on their server core.
//
// Fleet. With config.adaptive_routing an epoch controller closes the
// fabric's traffic epoch every epoch_cycles, parks shards below the
// break-even op count, wakes them under queue-depth pressure and feeds the
// closed matrix to the router. It lives in the same class as the
// rebalancer because a parking shard drains through the same return path,
// and because the two must share one reentrancy guard: migration traffic
// drains recipient rings, whose post-drain hooks would start watermark ticks
// mid-epoch.
#ifndef NGX_SRC_CORE_CONTROL_PLANE_H_
#define NGX_SRC_CORE_CONTROL_PLANE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/nextgen_config.h"
#include "src/core/server_heap.h"
#include "src/core/span_directory.h"
#include "src/offload/offload_fabric.h"

namespace ngx {

class ControlPlane {
 public:
  // `config` and `heaps` belong to the allocator that owns this
  // control plane and must outlive it. Registers, in this order: for each
  // shard its post-drain hook and then its watermark timer (span_low_mark
  // set), then the epoch timer (adaptive_routing set). Machine::RunTimerHooks
  // fires hooks in registration order, so the order is part of the simulated
  // history.
  ControlPlane(Machine& machine, OffloadFabric& fabric, const NgxConfig& config,
               const std::vector<std::unique_ptr<ServerHeap>>& heaps);
  // Removes every hook it added: the machine and fabric may outlive it.
  ~ControlPlane();
  // The hooks capture `this`, so no copies; deleting them also leaves the
  // class without move operations.
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // Runs on `shard`'s server core after its partition failed to carve `size`:
  // refills the partition from the shard's own recycled pool or a donor and
  // retries. kNullAddr without span donation or when every shard is dry.
  Addr MallocWithDonation(Env& server_env, int shard, std::uint64_t size);
  // Server side of kDonateSpan, kRequestSpans, kOfferSpans and kReturnSpan.
  std::uint64_t HandleSpanOp(Env& server_env, int shard, OffloadOp op, std::uint64_t arg);

  const SpanDirectory& directory() const { return directory_; }
  SpanDirectory& directory() { return directory_; }
  // Watermark rebalancing (span_low_mark set) and the epoch controller.
  bool rebalancing() const { return config_.span_low_mark > 0; }
  bool adaptive() const { return config_.adaptive_routing; }
  // Background transfers (refills + offers + returns, and migrate-home runs
  // of draining shards), and mallocs that still took the inline donation
  // because a request arrived before the rebalancer could refill the
  // partition.
  std::uint64_t rebalance_moves() const { return rebalance_moves_; }
  std::uint64_t inline_donation_fallbacks() const { return inline_fallbacks_; }
  // Epochs closed, home-shard reassignments made by the router, park
  // transitions, wakes, and the simulated core-cycles released while shards
  // sat parked (epoch_cycles per parked shard per epoch). fleet_timeline has
  // one entry per closed epoch.
  std::uint64_t routing_epochs() const { return routing_epochs_; }
  std::uint64_t client_moves() const { return fabric_->router().client_moves(); }
  std::uint64_t shards_parked() const { return shards_parked_; }
  std::uint64_t shards_woken() const { return shards_woken_; }
  std::uint64_t parked_core_cycles() const { return parked_core_cycles_; }
  const std::vector<FleetEpoch>& fleet_timeline() const { return fleet_timeline_; }
  // Shard whose server core hosts the epoch timer. The controller is elected,
  // not hard-wired to shard 0: when the ticker shard leaves kActive, the tick
  // re-pins the timer to the lowest-id active shard (the last active shard
  // never parks, so one exists).
  int epoch_ticker_shard() const { return epoch_ticker_shard_; }

 private:
  int num_shards() const { return static_cast<int>(heaps_.size()); }
  PageProvider& provider(int shard) const {
    return heaps_[static_cast<std::size_t>(shard)]->span_provider();
  }
  Env ServerEnv(int shard) const {
    return Env(*machine_, fabric_->server_cores()[static_cast<std::size_t>(shard)]);
  }

  // Spans a grant must carry for the recipient to map `size`: whole map
  // units, so its provider can satisfy the next Map from the grafted range.
  std::uint64_t NeededGrantSpans(std::uint64_t size) const;
  // Shard with the most free spans other than `shard` and those marked in
  // `refused` (may be null); -1 if none has any.
  int PickDonor(int shard, const std::vector<bool>* refused) const;
  // Asks `donor` over `op` (kDonateSpan or kRequestSpans) for `want` spans
  // on `shard`'s behalf and grafts the grant onto `shard`'s provider.
  // Returns the spans granted, 0 if the donor had none to spare.
  std::uint64_t PullSpans(Env& server_env, int shard, int donor, OffloadOp op,
                          std::uint64_t want);
  // Carves up to `want` spans (falling back to one grant unit) from `donor`'s
  // recycled pool or provider tail and moves their ownership to `to`.
  // Returns the run word (base|spans), 0 if the donor cannot spare a unit.
  std::uint64_t CarveSpans(Env& server_env, int donor, int to, std::uint64_t want);
  // Marks a donation (or a return home) on the trace; the directory counts
  // the spans.
  void NoteSpanMove(Env& server_env, bool returned);

  // Watermark rebalancer (DESIGN.md §8): runs on shard's server core after
  // each of its drains and on its periodic timer, a few moves per tick.
  void WatermarkTick(Env& server_env, int shard);
  bool TryRefill(Env& server_env, int shard, std::uint64_t free);
  bool TryReturnHome(Env& server_env, int shard);
  // Posts one fully-recycled away run of `shard` (at most `max_units` grant
  // units, all with one home) back to its home shard as a one-way
  // kReturnSpan, which the home grafts in a later drain. False when no such
  // run exists.
  bool ReturnRunHome(Env& server_env, int shard, std::uint64_t max_units);
  bool TryOfferSurplus(Env& server_env, int shard, std::uint64_t free);
  bool TryRestockLocal(Env& server_env, int shard);

  // Elastic-fleet epoch controller (DESIGN.md §14), on the elected ticker
  // shard's timer: closes the fabric's traffic epoch, steps draining shards
  // toward kParked, wakes parked shards under queue-depth pressure, drains
  // the coldest shard below the break-even op count, and feeds the closed
  // matrix to the router's Observe.
  void EpochTick(Env& env);
  // Returns a bounded batch of `shard`'s recycled granted runs home on its
  // own server core, and parks it once nothing migratable remains.
  void DrainTowardParked(int shard);

  Machine* machine_;
  OffloadFabric* fabric_;
  const NgxConfig& config_;
  const std::vector<std::unique_ptr<ServerHeap>>& heaps_;
  SpanDirectory directory_;
  bool in_rebalance_ = false;  // tick reentrancy guard, shared by both tick kinds
  // Grant geometry: the data window's map page, the spans in the smallest
  // grant, and the base alignment a granted range needs.
  const std::uint64_t map_page_;
  const std::uint64_t grant_unit_spans_;
  const std::uint64_t grant_align_;
  std::uint64_t rebalance_moves_ = 0;
  std::uint64_t inline_fallbacks_ = 0;
  std::uint64_t routing_epochs_ = 0;
  std::uint64_t shards_parked_ = 0;  // park transitions (not current count)
  std::uint64_t shards_woken_ = 0;
  std::uint64_t parked_core_cycles_ = 0;
  std::uint64_t last_client_moves_ = 0;  // router total at last epoch close
  int epoch_timer_id_ = -1;
  int epoch_ticker_shard_ = 0;
  EpochMatrix epoch_scratch_;
  std::vector<FleetEpoch> fleet_timeline_;
  std::vector<int> timer_hook_ids_;  // watermark + epoch timer hooks
};

}  // namespace ngx

#endif  // NGX_SRC_CORE_CONTROL_PLANE_H_
