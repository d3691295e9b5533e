// Adaptive traffic-matrix routing + elastic allocator-core fleet tests
// (DESIGN.md §14):
//
//  * Router units: greedy packing by descending epoch traffic, the 25%
//    hysteresis holding marginally-worse homes (up to and including the band
//    edge) and releasing clearly-worse ones, inactive shards excluded from
//    packing and routing, idle clients keeping their placement;
//  * fleet lifecycle end to end: a shard with no epoch traffic drains and
//    parks (returning its recycled granted spans home first), a parked
//    shard still serves owner-bound frees and wakes on ring backlog, and
//    the allocator's books balance through park/wake cycles;
//  * the packer end to end: the epoch controller re-homes a client whose
//    shard it shares with a heavier one, and its mallocs follow;
//  * the fixed fleet floor: with every shard below break-even, one shard
//    parks per epoch close until one active shard (and the controller on
//    it) remains;
//  * an NGX_CHECK death test for a zero epoch length.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/nextgen_malloc.h"
#include "src/core/span_directory.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

constexpr std::uint64_t kSpan = 64 * 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

// ---- Router units ----

// Builds an epoch whose per-client row totals are `rows` (the router only
// consumes RowTotal, so the whole row can sit in column 0).
EpochMatrix MakeEpoch(int num_shards, const std::vector<std::uint64_t>& rows) {
  EpochMatrix m;
  m.num_clients = static_cast<int>(rows.size());
  m.num_shards = num_shards;
  m.ops.assign(rows.size() * static_cast<std::size_t>(num_shards), 0);
  for (std::size_t c = 0; c < rows.size(); ++c) {
    m.ops[c * static_cast<std::size_t>(num_shards)] = rows[c];
  }
  return m;
}

std::vector<ShardState> ActiveStates(std::size_t n) {
  return std::vector<ShardState>(n, ShardState::kActive);
}

TEST(AdaptiveRouting, UnplacedClientSpreadsOverActiveShards) {
  const Router r;
  EXPECT_EQ(r.HomeOf(0), -1);
  auto states = ActiveStates(3);
  EXPECT_EQ(r.Route(4, states), 1) << "client % shards before any epoch";
  states[0] = ShardState::kParked;
  EXPECT_EQ(r.Route(4, states), 1) << "4 % 2 active -> first active shard";
  EXPECT_EQ(r.Route(5, states), 2) << "5 % 2 active -> second active shard";
}

TEST(AdaptiveRouting, ObserveGreedyPacksByDescendingTraffic) {
  Router r;
  r.Observe(MakeEpoch(2, {100, 80, 60, 40}), ActiveStates(2));
  // Placement order 100, 80, 60, 40 onto the least-packed shard:
  // c0->s0 (100|0), c1->s1 (100|80), c2->s1 (100|140), c3->s0 (140|140).
  EXPECT_EQ(r.HomeOf(0), 0);
  EXPECT_EQ(r.HomeOf(1), 1);
  EXPECT_EQ(r.HomeOf(2), 1);
  EXPECT_EQ(r.HomeOf(3), 0);
  EXPECT_EQ(r.client_moves(), 0u) << "first placement is not a move";
  EXPECT_EQ(r.HomeOf(9), -1) << "never-seen client stays unplaced";
  EXPECT_EQ(r.Route(2, ActiveStates(2)), 1) << "placed client routes to its home";
}

TEST(AdaptiveRouting, HysteresisHoldsMarginalHomesAndReleasesClearOnes) {
  Router r;
  r.Observe(MakeEpoch(2, {100, 100}), ActiveStates(2));
  ASSERT_EQ(r.HomeOf(0), 0);
  ASSERT_EQ(r.HomeOf(1), 1);

  // c1 now dominates and its greedy slot would be s0 (empty-shard tie breaks
  // to the lower id), but s0 is no better than its home -- hysteresis holds.
  r.Observe(MakeEpoch(2, {10, 100}), ActiveStates(2));
  EXPECT_EQ(r.HomeOf(0), 0);
  EXPECT_EQ(r.HomeOf(1), 1);
  EXPECT_EQ(r.client_moves(), 0u);

  // A new heavy client lands on s0 first; staying would cost c0 a 3x taller
  // shard than moving (300 vs 100 > the 25% band), so c0 must move.
  r.Observe(MakeEpoch(2, {100, 100, 200}), ActiveStates(2));
  EXPECT_EQ(r.HomeOf(2), 0);
  EXPECT_EQ(r.HomeOf(0), 1) << "clearly-worse home released";
  EXPECT_EQ(r.HomeOf(1), 1);
  EXPECT_EQ(r.client_moves(), 1u);
}

// The band is 25% and inclusive. Client 3 is homed on s1, then three
// heavier clients fill s0, s1 (with `b` ops) and s2 (100 ops) ahead of it.
// Staying home costs b + 100 against 200 on s2: within 1.25x at b = 150,
// outside it at b = 151.
TEST(AdaptiveRouting, HysteresisBandIsTwentyFivePercentInclusive) {
  for (const std::uint64_t b : {150u, 151u}) {
    Router r;
    r.Observe(MakeEpoch(3, {200, 0, 0, 100}), ActiveStates(3));
    ASSERT_EQ(r.HomeOf(3), 1);
    r.Observe(MakeEpoch(3, {200, b, 100, 100}), ActiveStates(3));
    ASSERT_EQ(r.HomeOf(1), 1);
    ASSERT_EQ(r.HomeOf(2), 2);
    EXPECT_EQ(r.HomeOf(3), b == 150 ? 1 : 2) << "s1 carries " << b;
    EXPECT_EQ(r.client_moves(), b == 150 ? 0u : 1u);
  }
}

TEST(AdaptiveRouting, ObserveAndRouteSkipInactiveShards) {
  Router r;
  r.Observe(MakeEpoch(2, {50, 50}), {ShardState::kActive, ShardState::kParked});
  EXPECT_EQ(r.HomeOf(0), 0);
  EXPECT_EQ(r.HomeOf(1), 0) << "packing never targets an inactive shard";

  // A home that goes inactive between epochs stops attracting mallocs.
  Router q;
  q.Observe(MakeEpoch(2, {10, 100}), ActiveStates(2));
  ASSERT_EQ(q.HomeOf(1), 0);
  auto states = ActiveStates(2);
  states[0] = ShardState::kDraining;
  EXPECT_EQ(q.Route(1, states), 1) << "a draining home falls back to an active shard";
}

TEST(AdaptiveRouting, IdleClientKeepsItsHome) {
  Router r;
  r.Observe(MakeEpoch(2, {100, 40}), ActiveStates(2));
  ASSERT_EQ(r.HomeOf(1), 1);
  r.Observe(MakeEpoch(2, {100, 0}), ActiveStates(2));
  EXPECT_EQ(r.HomeOf(1), 1) << "an idle client must not churn placement";
  EXPECT_EQ(r.client_moves(), 0u);
}

// A client first seen in a later, wider epoch is placed then; the clients
// placed earlier keep their homes within the band.
TEST(AdaptiveRouting, ObservePlacesClientsFirstSeenInALaterEpoch) {
  Router r;
  r.Observe(MakeEpoch(2, {100, 100}), ActiveStates(2));
  ASSERT_EQ(r.HomeOf(3), -1);
  r.Observe(MakeEpoch(2, {100, 100, 0, 50}), ActiveStates(2));
  EXPECT_EQ(r.HomeOf(0), 0);
  EXPECT_EQ(r.HomeOf(1), 1);
  EXPECT_EQ(r.HomeOf(2), -1) << "a client with no traffic stays unplaced";
  EXPECT_EQ(r.HomeOf(3), 0) << "the newcomer takes the least-packed shard, ties to the lower id";
  EXPECT_EQ(r.client_moves(), 0u);
}

// client_moves counts reassignments, not placements: a client pushed off its
// home by a heavier newcomer and pushed back later counts twice.
TEST(AdaptiveRouting, ClientMovesCountEachReassignment) {
  Router r;
  r.Observe(MakeEpoch(2, {100, 100}), ActiveStates(2));  // c0 -> s0, c1 -> s1
  r.Observe(MakeEpoch(2, {100, 0, 400}), ActiveStates(2));  // c2 takes s0, c0 moves to s1
  ASSERT_EQ(r.HomeOf(0), 1);
  ASSERT_EQ(r.client_moves(), 1u);
  r.Observe(MakeEpoch(2, {100, 400}), ActiveStates(2));  // c1 keeps s1, c0 moves back to s0
  EXPECT_EQ(r.HomeOf(1), 1);
  EXPECT_EQ(r.HomeOf(0), 0);
  EXPECT_EQ(r.client_moves(), 2u);
}

// An epoch in which no shard serves mallocs leaves every home as it was.
TEST(AdaptiveRouting, ObserveWithTheWholeFleetInactiveKeepsPlacement) {
  Router r;
  r.Observe(MakeEpoch(2, {100, 40}), ActiveStates(2));
  ASSERT_EQ(r.HomeOf(0), 0);
  ASSERT_EQ(r.HomeOf(1), 1);
  r.Observe(MakeEpoch(2, {40, 100}), {ShardState::kDraining, ShardState::kParked});
  EXPECT_EQ(r.HomeOf(0), 0);
  EXPECT_EQ(r.HomeOf(1), 1);
  EXPECT_EQ(r.client_moves(), 0u);
}

// ---- Elastic fleet lifecycle ----

NgxConfig AdaptiveConfig() {
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.routing = RoutingKind::kAdaptive;
  cfg.adaptive_routing = true;
  cfg.epoch_cycles = 4000;
  cfg.park_threshold_ops = 4;
  cfg.wake_queue_depth = 8;
  return cfg;
}

TEST(AdaptiveFleet, ColdShardParksAndBooksStayBalanced) {
  auto machine = MakeMachine(4);  // clients 0-1, shards on cores 2-3
  auto sys = MakeNgxSystem(*machine, AdaptiveConfig());
  ASSERT_TRUE(sys.allocator->control()->adaptive());
  ASSERT_TRUE(sys.fabric->epoch_tracking());

  // Single-client traffic: every malloc lands on one shard, the other sees
  // zero epoch ops and must fall below the break-even threshold. These tests
  // drive Envs directly (no Scheduler::Run), so the periodic timer front is
  // pumped explicitly -- exactly what the scheduler does before each pick.
  Env app(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 400; ++i) {
    const Addr a = sys.allocator->Malloc(app, 64);
    ASSERT_NE(a, kNullAddr);
    blocks.push_back(a);
  }
  machine->RunTimerHooks(machine->core(0).now());
  EXPECT_GT(sys.allocator->routing_epochs(), 0u);
  EXPECT_GE(sys.allocator->shards_parked(), 1u);
  EXPECT_EQ(sys.fabric->num_active_shards(), 1);
  EXPECT_GT(sys.allocator->parked_core_cycles(), 0u)
      << "a parked shard's core is released capacity";
  const std::vector<FleetEpoch>& tl = sys.allocator->control()->fleet_timeline();
  ASSERT_EQ(tl.size(), sys.allocator->routing_epochs());
  EXPECT_EQ(tl.back().active_shards, 1);
  EXPECT_EQ(tl.back().parked_shards, 1);

  // Park/wake must never unbalance the books: every block frees cleanly.
  for (const Addr a : blocks) {
    sys.allocator->Free(app, a);
  }
  sys.allocator->Flush(app);
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees);
  EXPECT_EQ(s.bytes_live, 0u);
  EXPECT_EQ(sys.allocator->partition_oom_failures(), 0u);
}

TEST(AdaptiveFleet, RingBacklogWakesAParkedShard) {
  auto machine = MakeMachine(4);
  auto sys = MakeNgxSystem(*machine, AdaptiveConfig());
  Env c0(*machine, 0);
  Env c1(*machine, 1);

  // Client 1's unplaced mallocs fall back to shard 1 (1 % 2 active), giving
  // its partition live blocks. Shard 1's core never hosts the epoch timer
  // (that is the first server core), so no epoch closes yet.
  std::vector<Addr> on_shard1;
  for (int i = 0; i < 40; ++i) {
    const Addr a = sys.allocator->Malloc(c1, 64);
    ASSERT_NE(a, kNullAddr);
    ASSERT_EQ(sys.allocator->ShardOfAddr(a), 1);
    on_shard1.push_back(a);
  }

  // Park it, then free its blocks: owner-bound traffic still reaches the
  // parked shard's ring, and the backlog is the wake signal.
  sys.fabric->set_shard_state(1, ShardState::kParked);
  ASSERT_EQ(sys.fabric->num_active_shards(), 1);
  for (const Addr a : on_shard1) {
    sys.allocator->Free(c1, a);
  }
  ASSERT_GE(sys.fabric->QueueDepth(1), AdaptiveConfig().wake_queue_depth);

  // The next epoch close must wake the backlogged parked shard: the timer
  // front passes the due point and pulls the controller core up to it, like
  // a real timer interrupt reaching an idle core.
  c1.Work(2 * AdaptiveConfig().epoch_cycles);
  machine->RunTimerHooks(machine->core(1).now());
  EXPECT_GE(sys.allocator->routing_epochs(), 1u);
  EXPECT_GE(sys.allocator->control()->shards_woken(), 1u);
  EXPECT_EQ(sys.fabric->shard_state(1), ShardState::kActive);

  sys.allocator->Flush(c0);
  sys.allocator->Flush(c1);
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees);
  EXPECT_EQ(s.bytes_live, 0u);
}

TEST(AdaptiveFleet, DrainingShardReturnsGrantedSpansHomeBeforeParking) {
  auto machine = MakeMachine(3);  // client 0, shards on cores 1-2
  NgxConfig cfg = AdaptiveConfig();
  cfg.hugepage_spans = false;  // 64 KiB grant units
  cfg.heap_window = 8 * kMiB;
  cfg.span_donation = true;
  auto sys = MakeNgxSystem(*machine, cfg);
  SpanDirectory& d = *sys.allocator->directory();

  // Manufacture what a once-busy shard leaves behind: two of shard 0's spans
  // granted to shard 1, mapped there, and fully recycled again.
  const Addr base = sys.allocator->heap(0).span_provider().TrimTail(2 * kSpan, kSpan);
  ASSERT_NE(base, kNullAddr);
  d.TransferRange(base, 2, 0, 1);
  d.NoteMapped(1, base, 2 * kSpan);
  d.NoteUnmapped(1, base, 2 * kSpan);
  ASSERT_EQ(d.away_spans(1), 2u);

  // Client-0 traffic fills the epoch; shard 1 (zero ops) drains and parks at
  // the close, and draining must flow the recycled granted run back home.
  Env app(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 400; ++i) {
    const Addr a = sys.allocator->Malloc(app, 64);
    ASSERT_NE(a, kNullAddr);
    blocks.push_back(a);
  }
  machine->RunTimerHooks(machine->core(0).now());
  EXPECT_GE(sys.allocator->shards_parked(), 1u);
  EXPECT_EQ(sys.fabric->shard_state(1), ShardState::kParked);
  EXPECT_EQ(d.away_spans(1), 0u) << "nothing granted may stay at a parked shard";
  EXPECT_EQ(d.total_returned(), 2u);
  EXPECT_EQ(d.returned_in(0), 2u);

  for (const Addr a : blocks) {
    sys.allocator->Free(app, a);
  }
  sys.allocator->Flush(app);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->stats().mallocs, sys.allocator->stats().frees);
  // The return rode shard 0's ring one-way; by DrainAll at the latest the
  // home grafted it, so every span the directory keeps ungranted at home is
  // back in its provider window.
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(sys.fabric->QueueDepth(s), 0u) << "shard " << s;
    EXPECT_EQ((d.free_spans(s) - d.recycled_spans(s)) * kSpan,
              sys.allocator->heap(s).span_provider().FreeBytes())
        << "shard " << s;
  }
}

// The packer end to end: before any epoch the static spread stacks the two
// heavy clients 0 and 2 on shard 0; the first epoch close re-homes client 2
// onto shard 1, and its next malloc goes there.
TEST(AdaptiveFleet, PackerSeparatesTheHeavyClientsTheSpreadStacks) {
  auto machine = MakeMachine(6);  // clients 0-3, shards on cores 4-5
  NgxConfig cfg = AdaptiveConfig();
  cfg.park_threshold_ops = 0;  // routing only: no shard parks
  auto sys = MakeNgxSystem(*machine, cfg);
  ASSERT_EQ(sys.fabric->RouteMalloc(0), 0);
  ASSERT_EQ(sys.fabric->RouteMalloc(2), 0);

  std::vector<Env> envs;
  for (int c = 0; c < 4; ++c) {
    envs.emplace_back(*machine, c);
  }
  std::vector<std::vector<Addr>> blocks(4);
  for (int i = 0; i < 100; ++i) {
    for (int c = 0; c < 4; ++c) {
      if (c % 2 == 0 || i < 10) {  // clients 1 and 3 make 10 mallocs each
        blocks[static_cast<std::size_t>(c)].push_back(sys.allocator->Malloc(envs[c], 64));
        ASSERT_NE(blocks[static_cast<std::size_t>(c)].back(), kNullAddr);
      }
    }
  }
  std::uint64_t now = 0;
  for (const Env& env : envs) {
    now = std::max(now, env.now());
  }
  machine->RunTimerHooks(now);
  ASSERT_GT(sys.allocator->routing_epochs(), 0u);
  // Descending traffic: c0 -> s0, c2 -> s1, c1 -> s0 (tie, lower id), c3 -> s1.
  const Router& router = sys.fabric->router();
  EXPECT_EQ(router.HomeOf(0), 0);
  EXPECT_EQ(router.HomeOf(2), 1);
  EXPECT_EQ(router.HomeOf(1), 0);
  EXPECT_EQ(router.HomeOf(3), 1);
  EXPECT_EQ(sys.allocator->control()->client_moves(), 0u) << "first placement is not a move";
  const Addr a = sys.allocator->Malloc(envs[2], 64);
  ASSERT_NE(a, kNullAddr);
  EXPECT_EQ(sys.allocator->ShardOfAddr(a), 1) << "client 2's mallocs follow its new home";
  blocks[2].push_back(a);

  for (int c = 0; c < 4; ++c) {
    for (const Addr b : blocks[static_cast<std::size_t>(c)]) {
      sys.allocator->Free(envs[c], b);
    }
    sys.allocator->Flush(envs[c]);
  }
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->stats().mallocs, sys.allocator->stats().frees);
}

// A home that parks stops attracting its client: until the next epoch
// re-homes it, the client's mallocs take the static spread over the shards
// still active, and its frees still drain at the owner.
TEST(AdaptiveFleet, ParkedHomeSendsItsClientToTheActiveSpread) {
  auto machine = MakeMachine(5);  // clients 0-2, shards on cores 3-4
  NgxConfig cfg = AdaptiveConfig();
  cfg.park_threshold_ops = 0;  // this test parks by hand
  auto sys = MakeNgxSystem(*machine, cfg);
  Env c0(*machine, 0);
  Env c1(*machine, 1);
  std::vector<Addr> heavy;
  for (int i = 0; i < 40; ++i) {
    heavy.push_back(sys.allocator->Malloc(c0, 64));
  }
  const Addr light = sys.allocator->Malloc(c1, 64);
  machine->RunTimerHooks(std::max(c0.now(), c1.now()));
  ASSERT_GT(sys.allocator->routing_epochs(), 0u);
  ASSERT_EQ(sys.fabric->router().HomeOf(1), 1) << "the light client packs onto shard 1";

  sys.fabric->set_shard_state(1, ShardState::kParked);
  const Addr a = sys.allocator->Malloc(c1, 64);
  ASSERT_NE(a, kNullAddr);
  EXPECT_EQ(sys.allocator->ShardOfAddr(a), 0) << "1 % 1 active shard: the only active one";
  sys.allocator->Free(c0, light);  // owned by the parked shard
  sys.allocator->Free(c1, a);
  for (const Addr b : heavy) {
    sys.allocator->Free(c0, b);
  }
  sys.allocator->Flush(c0);
  sys.allocator->Flush(c1);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->shard_stats(1).frees, sys.allocator->shard_stats(1).mallocs);
  EXPECT_EQ(sys.allocator->stats().mallocs, sys.allocator->stats().frees);
}

// The epoch controller is ELECTED, not hard-wired to the first server core:
// when the shard hosting the ticker parks, the timer must re-pin to an
// active shard's core and keep closing epochs. Regression for the original
// hard-wiring, under which parking shard 0 silently froze the whole fleet
// (no epochs, no wakes, routing stuck on the last pre-park placement).
TEST(AdaptiveFleet, EpochTickerSurvivesParkingItsOwnShard) {
  auto machine = MakeMachine(4);  // clients 0-1, shards on cores 2-3
  auto sys = MakeNgxSystem(*machine, AdaptiveConfig());
  ASSERT_EQ(sys.allocator->control()->epoch_ticker_shard(), 0) << "ticker starts on shard 0";

  // Client 1's unplaced mallocs fall back to shard 1 (1 % 2 active): shard 0
  // sees zero epoch ops and parks at the close -- taking the original
  // hard-wired ticker core with it.
  Env c1(*machine, 1);
  std::vector<Addr> blocks;
  for (int i = 0; i < 400; ++i) {
    const Addr a = sys.allocator->Malloc(c1, 64);
    ASSERT_NE(a, kNullAddr);
    ASSERT_EQ(sys.allocator->ShardOfAddr(a), 1);
    blocks.push_back(a);
  }
  machine->RunTimerHooks(machine->core(1).now());
  ASSERT_EQ(sys.fabric->shard_state(0), ShardState::kParked);
  EXPECT_EQ(sys.allocator->control()->epoch_ticker_shard(), 1)
      << "the controller must re-elect onto the surviving active shard";
  const std::uint64_t epochs = sys.allocator->routing_epochs();
  ASSERT_GT(epochs, 0u);

  // With shard 0 parked, later epochs must still close on the elected core.
  c1.Work(2 * AdaptiveConfig().epoch_cycles);
  machine->RunTimerHooks(machine->core(1).now());
  EXPECT_GT(sys.allocator->routing_epochs(), epochs)
      << "epoch ticks must keep arriving after the election";
  EXPECT_EQ(sys.fabric->shard_state(1), ShardState::kActive);

  for (const Addr a : blocks) {
    sys.allocator->Free(c1, a);
  }
  sys.allocator->Flush(c1);
  sys.fabric->DrainAll();
  const AllocatorStats s = sys.allocator->stats();
  EXPECT_EQ(s.mallocs, s.frees);
  EXPECT_EQ(s.bytes_live, 0u);
}

// The fleet floor is fixed at one active shard. With no traffic at all every
// shard is below break-even at every close, so the controller parks exactly
// one shard per epoch -- the coldest, ties to the lowest id -- until one
// active shard remains. That shard never parks: it keeps serving mallocs and
// hosts the controller, which follows each park onto an active shard.
TEST(AdaptiveFleet, QuietFleetParksOneShardPerEpochDownToTheLast) {
  constexpr int kShards = 4;
  auto machine = MakeMachine(kShards + 1);  // client 0, shards on cores 1-4
  NgxConfig cfg = AdaptiveConfig();
  cfg.num_shards = kShards;
  auto sys = MakeNgxSystem(*machine, cfg);
  ASSERT_TRUE(sys.allocator->control()->adaptive());
  // The controller's first close is due one epoch after construction on the
  // first server core's clock; each round moves the time front one epoch.
  const std::uint64_t t0 = machine->core(sys.fabric->server_cores().front()).now();
  for (int epoch = 1; epoch <= kShards + 2; ++epoch) {
    machine->RunTimerHooks(t0 + static_cast<std::uint64_t>(epoch) * cfg.epoch_cycles);
    ASSERT_EQ(sys.allocator->routing_epochs(), static_cast<std::uint64_t>(epoch));
    const int active = std::max(1, kShards - epoch);
    EXPECT_EQ(sys.fabric->num_active_shards(), active) << "epoch " << epoch;
    EXPECT_EQ(sys.allocator->shards_parked(), static_cast<std::uint64_t>(kShards - active))
        << "epoch " << epoch;
    const FleetEpoch& fe = sys.allocator->control()->fleet_timeline().back();
    EXPECT_EQ(fe.active_shards, active);
    EXPECT_EQ(fe.parked_shards, kShards - active);
    EXPECT_EQ(sys.fabric->shard_state(sys.allocator->control()->epoch_ticker_shard()),
              ShardState::kActive)
        << "the controller must stay on an active shard, epoch " << epoch;
  }
  EXPECT_EQ(sys.allocator->control()->epoch_ticker_shard(), kShards - 1)
      << "shards park lowest id first, so the last one standing hosts the ticker";
  EXPECT_EQ(sys.allocator->control()->shards_woken(), 0u);
}

// ---- Fleet knob guard must abort in every build type ----

TEST(AdaptiveFleetDeath, ZeroEpochLengthAborts) {
  auto machine = MakeMachine(4);
  NgxConfig cfg = AdaptiveConfig();
  cfg.epoch_cycles = 0;
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg), "epoch");
}

}  // namespace
}  // namespace ngx
