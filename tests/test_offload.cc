// Tests for the offload channel protocol and engine timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/offload/channel.h"
#include "src/offload/offload_engine.h"
#include "src/sim/scheduler.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

constexpr Addr kTestChannelBase = 0x0700'0000'0000ull;

class EchoServer : public OffloadServer {
 public:
  std::uint64_t HandleRequest(Env& env, int client, OffloadOp op,
                              std::uint64_t arg) override {
    started.push_back(env.now());
    env.Work(work_per_request);
    last_client = client;
    last_op = op;
    if (op == OffloadOp::kFree) {
      freed.push_back(arg);
      return 0;
    }
    if (op == OffloadOp::kReturnSpan) {
      posted.push_back(arg);
      return 0;
    }
    return arg + 2;
  }

  std::uint64_t work_per_request = 50;
  int last_client = -1;
  OffloadOp last_op = OffloadOp::kMalloc;
  std::vector<std::uint64_t> freed;
  std::vector<std::uint64_t> posted;  // args of the Posts handled
  std::vector<std::uint64_t> started;  // server clock at each handler entry
};

class OffloadEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = MakeMachine(3);
    machine_->address_map().Add(
        Region{kTestChannelBase, kChannelStride * 3, PageKind::kSmall4K, "chan"});
    engine_ = std::make_unique<OffloadEngine>(*machine_, /*server_core=*/2, kTestChannelBase,
                                              /*ring_capacity=*/8);
    engine_->set_server(&server_);
  }

  std::unique_ptr<Machine> machine_;
  std::unique_ptr<OffloadEngine> engine_;
  EchoServer server_;
};

TEST_F(OffloadEngineTest, SyncRequestRoundTrips) {
  Env env(*machine_, 0);
  EXPECT_EQ(engine_->SyncRequest(env, OffloadOp::kMalloc, 40), 42u);
  EXPECT_EQ(server_.last_client, 0);
  EXPECT_EQ(engine_->stats().sync_requests, 1u);
}

TEST_F(OffloadEngineTest, ClientWaitsForServer) {
  Env env(*machine_, 0);
  const std::uint64_t t0 = env.now();
  engine_->SyncRequest(env, OffloadOp::kMalloc, 1);
  // The client must have advanced at least by the server's handler work.
  EXPECT_GE(env.now() - t0, server_.work_per_request);
}

TEST_F(OffloadEngineTest, ServerSerializesClients) {
  // Two clients issuing at the same time: the second must queue behind the
  // first on the server clock.
  Env e0(*machine_, 0);
  Env e1(*machine_, 1);
  server_.work_per_request = 5000;
  engine_->SyncRequest(e0, OffloadOp::kMalloc, 1);
  engine_->SyncRequest(e1, OffloadOp::kMalloc, 2);
  EXPECT_GE(machine_->core(1).now(), machine_->core(2).now() - 10);
  // Two handler invocations of Work(5000) at the server's CPI.
  EXPECT_GE(machine_->core(2).now(),
            static_cast<std::uint64_t>(2 * 5000 *
                                       machine_->core(2).config().cpi));
  EXPECT_GE(engine_->stats().server_busy_waits, 1u);  // ring-poll loads may add a second
}

TEST_F(OffloadEngineTest, AsyncFreeDoesNotBlockClient) {
  Env env(*machine_, 0);
  server_.work_per_request = 100000;
  const std::uint64_t t0 = env.now();
  engine_->AsyncRequest(env, OffloadOp::kFree, 0xabc);
  EXPECT_LT(env.now() - t0, 5000u) << "async free must not pay the server's work";
  EXPECT_TRUE(server_.freed.empty()) << "not processed yet";
  engine_->DrainAll();
  ASSERT_EQ(server_.freed.size(), 1u);
  EXPECT_EQ(server_.freed[0], 0xabcu);
}

TEST_F(OffloadEngineTest, RingOrderPreserved) {
  Env env(*machine_, 0);
  for (std::uint64_t i = 0; i < 6; ++i) {
    engine_->AsyncRequest(env, OffloadOp::kFree, 100 + i);
  }
  engine_->DrainAll();
  ASSERT_EQ(server_.freed.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(server_.freed[i], 100 + i);
  }
}

// Staged frees carry no run-end mark, so no drain consumes them; the
// publish makes the whole run visible, and it drains after the runs
// published before it, in ring order.
TEST_F(OffloadEngineTest, StagedRunIsInvisibleToDrainsUntilPublished) {
  Env env(*machine_, 0);
  for (std::uint64_t i = 0; i < 4; ++i) {
    engine_->StageFree(env, 0x100 + i, 4);  // the 4th publishes the batch
  }
  engine_->StageFree(env, 0x104, 4);
  engine_->StageFree(env, 0x105, 4);
  engine_->DrainAll();
  EXPECT_EQ(server_.freed, (std::vector<std::uint64_t>{0x100, 0x101, 0x102, 0x103}));
  const Addr slots = kTestChannelBase + kRingEntriesOff;
  const std::uint64_t staged = machine_->memory().Read<std::uint64_t>(slots + 8 * 5);
  EXPECT_EQ(staged, kRingLapBit | 0x105) << "staged: this lap's bit, no run-end mark";

  EXPECT_EQ(engine_->PublishStaged(env), 2u);
  EXPECT_EQ(machine_->memory().Read<std::uint64_t>(slots + 8 * 5),
            kRingLapBit | kRingRunEnd | 0x105);
  engine_->DrainAll();
  EXPECT_EQ(server_.freed,
            (std::vector<std::uint64_t>{0x100, 0x101, 0x102, 0x103, 0x104, 0x105}));
  EXPECT_EQ(engine_->stats().ring_doorbells, 2u) << "one per published run";
}

TEST_F(OffloadEngineTest, RingFullBackpressure) {
  Env env(*machine_, 0);
  for (std::uint64_t i = 0; i < 20; ++i) {  // capacity is 8
    engine_->AsyncRequest(env, OffloadOp::kFree, i);
  }
  EXPECT_GT(engine_->stats().ring_full_stalls, 0u);
  engine_->DrainAll();
  EXPECT_EQ(server_.freed.size(), 20u);
}

TEST_F(OffloadEngineTest, PendingFreesOrderedBeforeSyncRequest) {
  Env env(*machine_, 0);
  engine_->AsyncRequest(env, OffloadOp::kFree, 7);
  engine_->SyncRequest(env, OffloadOp::kMalloc, 1);
  // The free must have been drained before the malloc was served.
  ASSERT_EQ(server_.freed.size(), 1u);
}

TEST_F(OffloadEngineTest, MailboxLinesActuallyTransfer) {
  Env env(*machine_, 0);
  engine_->SyncRequest(env, OffloadOp::kMalloc, 1);
  engine_->SyncRequest(env, OffloadOp::kMalloc, 1);
  // Both sides must show coherence traffic on the mailbox lines.
  EXPECT_GT(machine_->core(0).pmu().remote_hitm + machine_->core(0).pmu().invalidations_sent,
            0u);
  EXPECT_GT(machine_->core(2).pmu().remote_hitm + machine_->core(2).pmu().invalidations_sent,
            0u);
}

// ---- One push path: the producer keeps the server's tail in a register ----

// After a drain the server has rewritten the tail line. An unbatched free
// that follows costs its client the entry store alone, with no load of that
// line: a twin machine that only makes the same store into the same slot
// shows the same clock and the same coherence traffic.
TEST_F(OffloadEngineTest, UnbatchedFreeAfterADrainCostsItsEntryStoreAlone) {
  auto twin = MakeMachine(3);
  twin->address_map().Add(
      Region{kTestChannelBase, kChannelStride * 3, PageKind::kSmall4K, "chan"});
  OffloadEngine twin_engine(*twin, /*server_core=*/2, kTestChannelBase, /*ring_capacity=*/8);
  EchoServer twin_server;
  twin_engine.set_server(&twin_server);
  for (const auto& [m, e] : {std::pair{machine_.get(), engine_.get()},
                             std::pair{twin.get(), &twin_engine}}) {
    Env env(*m, 0);
    e->AsyncRequest(env, OffloadOp::kFree, 0x100);
    e->DrainAll();
    m->core(0).AdvanceTo(m->core(2).now());
  }
  Env env(*machine_, 0);
  Env twin_env(*twin, 0);
  ASSERT_EQ(env.now(), twin_env.now());
  const std::uint64_t t0 = env.now();
  const PmuCounters before = machine_->core(0).pmu();
  const PmuCounters twin_before = twin->core(0).pmu();

  engine_->AsyncRequest(env, OffloadOp::kFree, 0x108);
  twin_env.AtomicStore(kTestChannelBase + kRingEntriesOff + 8,
                       kRingLapBit | kRingRunEnd | 0x108);

  const PmuCounters& after = machine_->core(0).pmu();
  const PmuCounters& twin_after = twin->core(0).pmu();
  EXPECT_EQ(env.now() - t0, twin_env.now() - t0) << "the push costs more than its store";
  EXPECT_EQ(after.loads, before.loads) << "the push loaded the tail line";
  EXPECT_EQ(after.remote_hitm - before.remote_hitm,
            twin_after.remote_hitm - twin_before.remote_hitm);
  EXPECT_EQ(after.remote_hitm, before.remote_hitm) << "the push transferred the tail line";
  engine_->DrainAll();
  EXPECT_EQ(server_.freed, (std::vector<std::uint64_t>{0x100, 0x108}));
}

// The cached tail only lags the server's. A producer that filled the ring
// and saw it drained re-reads the tail line once, on the first push whose
// cached copy says the ring is full, and then fills the ring again with no
// further load.
TEST_F(OffloadEngineTest, CachedTailIsReReadOnceWhenItSaysTheRingIsFull) {
  Env env(*machine_, 0);
  for (std::uint64_t i = 0; i < 8; ++i) {  // capacity is 8
    engine_->AsyncRequest(env, OffloadOp::kFree, 0x100 + 8 * i);
  }
  engine_->DrainAll();
  machine_->core(0).AdvanceTo(machine_->core(2).now());
  const PmuCounters before = machine_->core(0).pmu();
  for (std::uint64_t i = 8; i < 16; ++i) {
    engine_->AsyncRequest(env, OffloadOp::kFree, 0x100 + 8 * i);
  }
  const PmuCounters& after = machine_->core(0).pmu();
  EXPECT_EQ(after.loads - before.loads, 1u) << "one re-read of the tail line, not one per push";
  EXPECT_EQ(after.remote_hitm - before.remote_hitm, 1u) << "the server rewrote the tail line";
  EXPECT_EQ(engine_->stats().ring_full_stalls, 0u) << "the re-read found the ring drained";
  engine_->DrainAll();
  EXPECT_EQ(server_.freed.size(), 16u);
}

// ---- Malloc-first shards: published free batches yield to sync requests ----

// Server cycles of one EchoServer entry at 2000 instructions of work.
std::uint64_t SlowEntryCycles(Machine& machine) {
  return static_cast<std::uint64_t>(2000 * machine.core(2).config().cpi);
}

// Client 0 publishes an 8-entry free batch (addresses base..base+7) and
// client 1 sends a sync request half an entry after the doorbell, while the
// server, idle until then, works on the first entry. Returns client 1's
// round-trip time.
std::uint64_t SyncJustAfterABatch(Machine& machine, OffloadEngine& engine, std::uint64_t base) {
  Env producer(machine, 0);
  Env consumer(machine, 1);
  machine.core(0).AdvanceTo(std::max(consumer.now(), machine.core(2).now()));
  for (std::uint64_t i = 0; i < 8; ++i) {
    engine.StageFree(producer, base + i, 8);
  }
  machine.core(1).AdvanceTo(producer.now() + SlowEntryCycles(machine) / 2);
  const std::uint64_t t0 = consumer.now();
  engine.SyncRequest(consumer, OffloadOp::kMalloc, 1);
  return consumer.now() - t0;
}

TEST_F(OffloadEngineTest, SyncRequestWaitsAtMostOneEntryOfAPublishedBatch) {
  server_.work_per_request = 2000;
  Env consumer(*machine_, 1);
  engine_->SyncRequest(consumer, OffloadOp::kMalloc, 1);  // warms the mailbox lines
  const std::uint64_t r0 = consumer.now();
  engine_->SyncRequest(consumer, OffloadOp::kMalloc, 1);
  const std::uint64_t round_trip = consumer.now() - r0;

  const std::uint64_t waited = SyncJustAfterABatch(*machine_, *engine_, 0x100);
  EXPECT_EQ(server_.freed.size(), 1u) << "only the entry started before the send runs first";
  // An entry is the handler's work plus its ring and mailbox-check
  // overhead; a second handler's worth covers that overhead generously and
  // is still far below the eight entries of a drain on the spot.
  EXPECT_LE(waited, round_trip + 2 * SlowEntryCycles(*machine_));
}

TEST_F(OffloadEngineTest, SkippedBatchEntriesDrainLaterInRingOrder) {
  server_.work_per_request = 2000;
  Env producer(*machine_, 0);
  Env consumer(*machine_, 1);
  std::vector<std::uint64_t> expected;
  const auto batch = [&](std::uint64_t base) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      expected.push_back(base + i);
    }
  };

  // The next idle window: a sync request sent long after the doorbell.
  SyncJustAfterABatch(*machine_, *engine_, 0x100);
  ASSERT_EQ(server_.freed.size(), 1u);
  batch(0x100);
  machine_->core(1).AdvanceTo(consumer.now() + 100000);
  engine_->SyncRequest(consumer, OffloadOp::kMalloc, 1);
  EXPECT_EQ(server_.freed, expected);

  // The ring's next doorbell, here a one-entry batch, drains the whole ring.
  SyncJustAfterABatch(*machine_, *engine_, 0x200);
  ASSERT_EQ(server_.freed.size(), expected.size() + 1);
  batch(0x200);
  engine_->StageFree(producer, 0x300, 1);
  expected.push_back(0x300);
  EXPECT_EQ(server_.freed, expected);

  // DrainAll.
  SyncJustAfterABatch(*machine_, *engine_, 0x400);
  ASSERT_EQ(server_.freed.size(), expected.size() + 1);
  batch(0x400);
  engine_->DrainAll();
  EXPECT_EQ(server_.freed, expected);

  const OffloadEngineStats& st = engine_->stats();
  EXPECT_EQ(st.ring_full_stalls, 0u);
  EXPECT_EQ(st.async_ops, st.async_enqueued);
  EXPECT_EQ(st.staged_frees, expected.size()) << "no free is lost";
}

// Handler starts of one 8-entry batch drained in an idle window and of one
// drained by DrainAll: the idle window's entries sit further apart by the
// mailbox check the server pays before each of them.
TEST_F(OffloadEngineTest, BetweenEntryCheckAdvancesTheServerClock) {
  Env producer(*machine_, 0);
  Env consumer(*machine_, 1);
  const auto publish_batch = [&] {
    for (std::uint64_t i = 0; i < 8; ++i) {
      engine_->StageFree(producer, 0x100 + i, 8);
    }
  };
  publish_batch();
  machine_->core(1).AdvanceTo(producer.now() + 100000);
  engine_->SyncRequest(consumer, OffloadOp::kMalloc, 1);
  ASSERT_EQ(server_.freed.size(), 8u);
  const std::uint64_t idle_gap = server_.started[2] - server_.started[1];

  machine_->core(0).AdvanceTo(consumer.now());
  publish_batch();
  engine_->DrainAll();
  ASSERT_EQ(server_.freed.size(), 16u);
  const std::size_t n = server_.started.size();
  const std::uint64_t drain_all_gap = server_.started[n - 6] - server_.started[n - 7];
  EXPECT_GT(idle_gap, drain_all_gap);
}

// The recorder's server-busy bucket books every cycle a drain window moves
// the server clock, the poll that opens a kicked drain or a DrainAll pass
// included.
TEST_F(OffloadEngineTest, RecorderBooksTheWholeServerDrainWindow) {
  TelemetryConfig tc;
  tc.enabled = true;
  tc.recorder = true;
  machine_->telemetry().Enable(tc);
  const FlightRecorder& rec = machine_->telemetry().recorder();
  Env client(*machine_, 0);
  machine_->core(0).AdvanceTo(10000);

  std::uint64_t busy0 = rec.cycles(FlightRecorder::kServerBusy);
  const std::uint64_t ready = engine_->AsyncRequestKicked(client, OffloadOp::kRefillStash, 1);
  // The kick starts the server at the doorbell, which is where the client
  // clock still stands.
  EXPECT_EQ(rec.cycles(FlightRecorder::kServerBusy) - busy0, ready - client.now());

  engine_->AsyncRequest(client, OffloadOp::kFree, 0x100);
  busy0 = rec.cycles(FlightRecorder::kServerBusy);
  const std::uint64_t server0 = machine_->core(2).now();
  engine_->DrainAll();
  EXPECT_EQ(rec.cycles(FlightRecorder::kServerBusy) - busy0, machine_->core(2).now() - server0);
}

// ---- Send-order shards: the scheduler makes sync calls in send order, and
// each is served at max(server clock, send) ----

// Serves every request by first asking a second engine: each window makes a
// round trip of its own.
class RelayServer : public OffloadServer {
 public:
  explicit RelayServer(OffloadEngine& next) : next_(&next) {}
  std::uint64_t HandleRequest(Env& env, int /*client*/, OffloadOp op,
                              std::uint64_t arg) override {
    return next_->SyncRequest(env, op, arg);
  }

 private:
  OffloadEngine* next_;
};

// A client thread that makes one sync request at each of `sends` (client
// clock). Like a workload thread it suspends before each call: one Step
// idles the client up to the send, and the next Step -- which the scheduler
// runs once no other thread's clock is earlier -- makes the call first.
class SyncSender : public SimThread {
 public:
  SyncSender(OffloadEngine& engine, int core, std::vector<std::uint64_t> sends)
      : engine_(&engine), core_(core), sends_(std::move(sends)) {}

  int core_id() const override { return core_; }

  bool Step(Env& env) override {
    if (!armed_) {
      env.machine().core(core_).AdvanceTo(sends_[finished.size()]);
      armed_ = true;
      return true;
    }
    engine_->SyncRequest(env, OffloadOp::kMalloc, 1);
    finished.push_back(env.now());
    armed_ = false;
    return finished.size() < sends_.size();
  }

  std::vector<std::uint64_t> finished;  // client clock after each response

 private:
  OffloadEngine* engine_;
  int core_;
  std::vector<std::uint64_t> sends_;
  bool armed_ = false;
};

// Four clients (cores 0-3) on one server core (4). Scenarios run their
// client threads under Scheduler::Run, listing the later sender first.
class SendOrderTest : public ::testing::Test {
 protected:
  static constexpr int kServer = 4;

  void SetUp() override {
    machine_ = MakeMachine(5);
    // Channel blocks for two engines: the relay test adds a second one.
    machine_->address_map().Add(
        Region{kTestChannelBase, kChannelStride * 10, PageKind::kSmall4K, "chan"});
    engine_ = std::make_unique<OffloadEngine>(*machine_, kServer, kTestChannelBase,
                                              /*ring_capacity=*/8);
    engine_->set_server(&server_);
  }

  Core& server_core() { return machine_->core(kServer); }

  // A sync request from `client` at time `at`, made directly (set-up only).
  // Returns the client's finish time.
  std::uint64_t SyncAt(int client, std::uint64_t at) {
    machine_->core(client).AdvanceTo(at);
    Env env(*machine_, client);
    engine_->SyncRequest(env, OffloadOp::kMalloc, 1);
    return env.now();
  }

  // One request per client, so every mailbox line has moved once.
  void Warm(std::initializer_list<int> clients) {
    for (const int c : clients) {
      SyncAt(c, machine_->core(c).now());
    }
  }

  // `client`'s round trip with the server idle at the send.
  std::uint64_t UnloadedRoundTrip(int client) {
    const std::uint64_t t0 = std::max(machine_->core(client).now(), server_core().now());
    return SyncAt(client, t0) - t0;
  }

  // Server cycles of one EchoServer handler at 2000 instructions of work.
  std::uint64_t SlowEntryCycles() {
    return static_cast<std::uint64_t>(2000 * server_core().config().cpi);
  }

  // Runs the senders under the scheduler and checks after every Step that
  // the server clock never moved backward.
  void Run(std::vector<SimThread*> threads) {
    struct Watched : SimThread {
      Watched(SimThread* t, Core* s, std::uint64_t* h) : inner(t), server(s), high(h) {}
      int core_id() const override { return inner->core_id(); }
      bool Step(Env& env) override {
        const bool more = inner->Step(env);
        EXPECT_GE(server->now(), *high) << "the server clock moved backward";
        *high = server->now();
        return more;
      }
      SimThread* inner;
      Core* server;
      std::uint64_t* high;
    };
    std::uint64_t high = server_core().now();
    std::vector<Watched> watched;
    watched.reserve(threads.size());
    std::vector<SimThread*> raw;
    for (SimThread* t : threads) {
      raw.push_back(&watched.emplace_back(t, &server_core(), &high));
    }
    Scheduler::Run(*machine_, raw);
  }

  // The server-track events named `name` recorded since event `first`.
  std::vector<const Tracer::Event*> ServerEvents(std::size_t first, const std::string& name) {
    const Tracer& tracer = machine_->telemetry().tracer();
    std::vector<const Tracer::Event*> found;
    for (std::size_t i = first; i < tracer.size(); ++i) {
      const Tracer::Event& e = tracer.events()[i];
      if (e.tid == kServer && e.name == name) {
        found.push_back(&e);
      }
    }
    return found;
  }

  std::unique_ptr<Machine> machine_;
  std::unique_ptr<OffloadEngine> engine_;
  EchoServer server_;
};

TEST_F(SendOrderTest, EarlierSendIsServedAtItsSend) {
  Warm({0, 1});
  const std::uint64_t round_trip = UnloadedRoundTrip(0);
  ASSERT_LT(machine_->core(0).now(), 1000u);
  SyncSender late(*engine_, 1, {20000});
  SyncSender early(*engine_, 0, {1000});
  Run({&late, &early});
  EXPECT_LE(early.finished[0] - 1000, round_trip + round_trip / 8);
  EXPECT_GT(late.finished[0], 20000u);
}

TEST_F(SendOrderTest, SendDuringAWindowWaitsOutOnlyThatWindow) {
  server_.work_per_request = 2000;
  Warm({0, 1, 2});
  const std::uint64_t round_trip = UnloadedRoundTrip(0);
  ASSERT_LT(machine_->core(0).now(), 10000u);
  // Client 0 sends once client 1's first request is done, and client 2 a
  // quarter handler after client 0; client 1 sends again much later.
  const std::uint64_t s0 = 10000 + round_trip;
  const std::uint64_t s2 = s0 + SlowEntryCycles() / 4;
  const std::uint64_t late_send = s2 + 4 * round_trip;
  SyncSender c1(*engine_, 1, {10000, late_send});
  SyncSender c2(*engine_, 2, {s2});
  SyncSender c0(*engine_, 0, {s0});
  Run({&c1, &c2, &c0});
  EXPECT_LE(c0.finished[0] - s0, round_trip + round_trip / 8);
  // Client 2 waits out the rest of client 0's window, then its own.
  EXPECT_GE(c2.finished[0] - s2, round_trip + SlowEntryCycles() / 2);
  EXPECT_LE(c2.finished[0] - s2, round_trip + SlowEntryCycles());
  EXPECT_LE(c1.finished[1] - late_send, round_trip + round_trip / 8);
}

TEST_F(SendOrderTest, PendingFreeDrainsBeforeItsClientsMalloc) {
  server_.work_per_request = 2000;
  Warm({0, 1});
  const std::uint64_t round_trip = UnloadedRoundTrip(0);
  ASSERT_LT(machine_->core(0).now(), 10000u);
  Env e0(*machine_, 0);
  engine_->AsyncRequest(e0, OffloadOp::kFree, 0xf00);  // unbatched: no drain yet
  ASSERT_TRUE(server_.freed.empty());
  const std::size_t handled = server_.started.size();
  SyncSender late(*engine_, 1, {40000});
  SyncSender c0(*engine_, 0, {10000});
  Run({&late, &c0});
  ASSERT_EQ(server_.freed, std::vector<std::uint64_t>{0xf00});
  // The free, client 0's malloc and client 1's malloc, in that order.
  ASSERT_EQ(server_.started.size(), handled + 3);
  EXPECT_LT(server_.started[handled], server_.started[handled + 1]);
  // The server was idle at the send: the drain rode its idle time.
  EXPECT_LE(server_.started[handled] + SlowEntryCycles(), 10000u);
  EXPECT_LE(c0.finished[0] - 10000, round_trip + round_trip / 8);
  EXPECT_LT(c0.finished[0], 40000u);
}

// Client 0 pushes a free and sends during client 1's service, so its whole
// window -- the drain of the free, then the malloc -- runs after the send.
class SendOrderTraceTest : public SendOrderTest {
 protected:
  void SetUp() override {
    SendOrderTest::SetUp();
    TelemetryConfig tc;
    tc.enabled = true;
    tc.trace = true;
    machine_->EnableTelemetry(tc);
    server_.work_per_request = 2000;
    Warm({0, 1});
    ASSERT_LT(machine_->core(0).now(), 20000u);
    Env e0(*machine_, 0);
    engine_->AsyncRequest(e0, OffloadOp::kFree, 0xf00);
    const std::size_t events0 = machine_->telemetry().tracer().size();
    send_ = 20000 + SlowEntryCycles() / 2;
    SyncSender c1(*engine_, 1, {20000});
    SyncSender c0(*engine_, 0, {send_});
    Run({&c1, &c0});
    finish_ = c0.finished[0];
    ASSERT_EQ(server_.freed, std::vector<std::uint64_t>{0xf00});
    drains_ = ServerEvents(events0, "drain");
    mallocs_ = ServerEvents(events0, "malloc");
    ASSERT_EQ(drains_.size(), 1u);
    ASSERT_EQ(mallocs_.size(), 2u) << "client 1's service, then client 0's";
  }

  std::uint64_t send_ = 0;    // client 0's send
  std::uint64_t finish_ = 0;  // client 0's finish
  std::vector<const Tracer::Event*> drains_;
  std::vector<const Tracer::Event*> mallocs_;
};

TEST_F(SendOrderTraceTest, WindowTraceEventsLieBetweenSendAndFinish) {
  const Tracer::Event& drain = *drains_[0];
  const Tracer::Event& op = *mallocs_[1];
  EXPECT_GE(drain.ts, send_);
  EXPECT_LE(drain.ts + drain.dur, op.ts) << "the free drains before the malloc";
  EXPECT_LE(op.ts + op.dur, finish_);
}

// A window sent while the server is busy starts where the busy window ends
// and ends at the server clock.
TEST_F(SendOrderTraceTest, BusyServerWindowStartsWhereThePreviousEnded) {
  const Tracer::Event& busy = *mallocs_[0];
  const Tracer::Event& drain = *drains_[0];
  const Tracer::Event& op = *mallocs_[1];
  EXPECT_EQ(drain.ts, busy.ts + busy.dur) << "the window starts where client 1's ended";
  EXPECT_EQ(op.ts + op.dur, server_core().now()) << "the service ends at the server clock";
}

// ---- Posts: one-way messages handled in the server's idle windows ----

// A post is handled in the first idle window that reaches its doorbell, no
// earlier than its push. Another client's kick does not handle it: a kick
// runs the server clock ahead of the windows still to come.
TEST_F(SendOrderTest, PostWaitsForAnIdleWindowNotAKick) {
  Warm({0, 1, 3});
  ASSERT_LT(machine_->core(3).now(), 5000u);
  machine_->core(3).AdvanceTo(5000);
  Env poster(*machine_, 3);
  const std::uint64_t t0 = poster.now();
  engine_->Post(poster, OffloadOp::kReturnSpan, 0x40);
  EXPECT_LT(poster.now() - t0, UnloadedRoundTrip(1)) << "the poster waited for a reply";
  EXPECT_TRUE(server_.posted.empty());
  EXPECT_EQ(engine_->stats().async_enqueued - engine_->stats().async_ops, 1u);

  machine_->core(0).AdvanceTo(6000);
  Env kicker(*machine_, 0);
  engine_->AsyncRequestKicked(kicker, OffloadOp::kRefillStash, 1);
  EXPECT_TRUE(server_.posted.empty()) << "a kick handled another client's post";

  const std::size_t handled = server_.started.size();
  SyncAt(1, 20000);
  ASSERT_EQ(server_.posted, std::vector<std::uint64_t>{0x40});
  EXPECT_GE(server_.started[handled], t0) << "the post was handled before its push";
  EXPECT_EQ(engine_->stats().async_enqueued, engine_->stats().async_ops);
}

// Doorbells queue in time order: a post from a clock far ahead of every
// client queues behind the free batch published after it, which the next
// idle window drains; DrainAll handles the post.
TEST_F(SendOrderTest, PostFromAClockAheadDoesNotBlockLaterBatches) {
  Warm({0, 1, 3});
  machine_->core(3).AdvanceTo(1000000);
  Env poster(*machine_, 3);
  engine_->Post(poster, OffloadOp::kReturnSpan, 0x40);
  machine_->core(0).AdvanceTo(10000);
  Env producer(*machine_, 0);
  engine_->StageFree(producer, 0x100, 2);
  engine_->StageFree(producer, 0x108, 2);  // publishes the batch
  SyncAt(1, 50000);
  EXPECT_EQ(server_.freed, (std::vector<std::uint64_t>{0x100, 0x108}))
      << "the post ahead blocked the batch behind it";
  EXPECT_TRUE(server_.posted.empty()) << "the post ran before its push";
  EXPECT_LT(server_core().now(), 1000000u);
  engine_->DrainAll();
  EXPECT_EQ(server_.posted, std::vector<std::uint64_t>{0x40});
}

TEST_F(SendOrderTest, RelayedRequestSentFirstFinishesFirst) {
  // Core 4's handler asks a second engine on core 3, as inline donation
  // asks a donor shard.
  OffloadEngine target(*machine_, /*server_core=*/3, kTestChannelBase + kChannelStride * 5,
                       /*ring_capacity=*/8);
  target.set_server(&server_);
  RelayServer relay(target);
  engine_->set_server(&relay);
  Warm({0, 1});
  ASSERT_LT(machine_->core(0).now(), 1000u);
  SyncSender late(*engine_, 1, {20000});
  SyncSender early(*engine_, 0, {1000});
  Run({&late, &early});
  EXPECT_LT(early.finished[0], 20000u);
  EXPECT_LT(early.finished[0], late.finished[0]);
}

TEST(Channel, PayloadIntegrity) {
  auto machine = MakeMachine(2);
  machine->address_map().Add(
      Region{kTestChannelBase, kChannelStride, PageKind::kSmall4K, "chan"});
  Channel ch(kTestChannelBase, 4);
  Env client(*machine, 0);
  Env server(*machine, 1);
  ch.ClientSend(client, 1, OffloadOp::kUsableSize, 0x1234);
  const Channel::Request req = ch.ServerReadRequest(server);
  EXPECT_EQ(req.seq, 1u);
  EXPECT_EQ(req.op, OffloadOp::kUsableSize);
  EXPECT_EQ(req.arg, 0x1234u);
  ch.ServerRespond(server, 1, 999);
  EXPECT_EQ(ch.ClientReceive(client, 1), 999u);
}

// A producer that keeps the ring's head in a register, as OffloadEngine's
// clients do, and publishes each push as a run of one.
struct RingProducer {
  Channel& ch;
  Env& env;
  std::uint64_t head = 0;

  std::uint64_t Space() { return ch.ring_capacity() - (head - ch.RingTail(env)); }
  void Push(std::uint64_t value) { ch.RingPublish(env, head++, value); }
};

TEST(Channel, RingWrapsAround) {
  auto machine = MakeMachine(2);
  machine->address_map().Add(
      Region{kTestChannelBase, kChannelStride, PageKind::kSmall4K, "chan"});
  Channel ch(kTestChannelBase, 4);
  Env client(*machine, 0);
  Env server(*machine, 1);
  RingProducer producer{ch, client};
  std::vector<std::uint64_t> got;
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_GT(producer.Space(), 0u);
      producer.Push(round * 10 + i);
    }
    EXPECT_EQ(producer.Space(), 0u);
    ch.ServerDrainRing(server, producer.head, [&](std::uint64_t v) { got.push_back(v); });
  }
  ASSERT_EQ(got.size(), 12u);
  EXPECT_EQ(got[4], 10u);
  EXPECT_EQ(got[11], 23u);
}

// A run staged from a line boundary and published by its last entry's
// store costs the draining server one line: the entry line. No index line
// is loaded.
TEST(Channel, PublishedRunFromALineBoundaryCostsTheServerOneTransfer) {
  auto machine = MakeMachine(2);
  machine->address_map().Add(
      Region{kTestChannelBase, kChannelStride, PageKind::kSmall4K, "chan"});
  static_assert(kRingEntriesOff % kCacheLineBytes == 0, "slot 0 opens a line");
  Channel ch(kTestChannelBase, 8);  // 8 slots = one line
  Env client(*machine, 0);
  Env server(*machine, 1);
  for (std::uint64_t i = 0; i < 7; ++i) {
    ch.RingStore(client, i, 0x100 + i);
  }
  ch.RingPublish(client, 7, 0x107);
  const PmuCounters before = machine->core(1).pmu();
  std::vector<std::uint64_t> got;
  EXPECT_EQ(ch.ServerDrainRing(server, 8, [&](std::uint64_t v) { got.push_back(v); }), 8u);
  const PmuCounters& after = machine->core(1).pmu();
  EXPECT_EQ(after.remote_hitm - before.remote_hitm, 1u) << "the entry line alone";
  EXPECT_EQ(after.loads - before.loads, 8u) << "one load per entry, none of an index";
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0x100, 0x101, 0x102, 0x103, 0x104, 0x105, 0x106,
                                             0x107}));
}

// Work per consumed entry in the deadline tests: its cycles dwarf the entry
// load a drain makes before its first entry.
constexpr std::uint64_t kSlowEntryWork = 20000;

// Half a slow entry past `server`'s clock: a deadline inside the first
// entry the next drain starts.
std::uint64_t MidFirstEntry(Machine& machine, int server) {
  const Core& core = machine.core(server);
  return core.now() + static_cast<std::uint64_t>(kSlowEntryWork * core.config().cpi / 2);
}

// The drain's deadline is checked before each entry: a drain that meets
// the server clock at its deadline starts nothing and touches no line, and
// an entry started before the deadline runs to its end, past it.
TEST(Channel, DrainStopsOnceTheServerClockReachesTheDeadline) {
  auto machine = MakeMachine(2);
  machine->address_map().Add(
      Region{kTestChannelBase, kChannelStride, PageKind::kSmall4K, "chan"});
  Channel ch(kTestChannelBase, 8);
  Env client(*machine, 0);
  Env server(*machine, 1);
  RingProducer producer{ch, client};
  for (std::uint64_t i = 0; i < 4; ++i) {
    producer.Push(i);
  }
  std::vector<std::uint64_t> got;
  const auto slow_consume = [&](std::uint64_t v) {
    server.Work(kSlowEntryWork);
    got.push_back(v);
  };
  const std::uint64_t clock0 = server.now();
  const std::uint64_t loads0 = machine->core(1).pmu().loads;
  EXPECT_EQ(ch.ServerDrainRing(server, producer.head, slow_consume, server.now()), 0u);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(server.now(), clock0);
  EXPECT_EQ(machine->core(1).pmu().loads, loads0);
  const std::uint64_t deadline = MidFirstEntry(*machine, 1);
  EXPECT_EQ(ch.ServerDrainRing(server, producer.head, slow_consume, deadline), 1u);
  EXPECT_GT(server.now(), deadline);
  EXPECT_EQ(got, std::vector<std::uint64_t>{0});
  EXPECT_EQ(producer.Space(), 8u - 3);
}

// Entries a deadline left behind drain later in ring order, interleaved
// with newer pushes after them.
TEST(Channel, DrainAfterADeadlineResumesInRingOrder) {
  auto machine = MakeMachine(2);
  machine->address_map().Add(
      Region{kTestChannelBase, kChannelStride, PageKind::kSmall4K, "chan"});
  Channel ch(kTestChannelBase, 4);
  Env client(*machine, 0);
  Env server(*machine, 1);
  RingProducer producer{ch, client};
  std::vector<std::uint64_t> got;
  const auto consume = [&](std::uint64_t v) {
    server.Work(kSlowEntryWork);
    got.push_back(v);
  };
  for (std::uint64_t i = 0; i < 4; ++i) {
    producer.Push(i);
  }
  // Two drains whose deadline falls inside their first entry.
  EXPECT_EQ(ch.ServerDrainRing(server, producer.head, consume, MidFirstEntry(*machine, 1)), 1u);
  EXPECT_EQ(ch.ServerDrainRing(server, producer.head, consume, MidFirstEntry(*machine, 1)), 1u);
  // Two slots are free again: the ring wraps.
  producer.Push(4);
  producer.Push(5);
  EXPECT_EQ(producer.Space(), 0u);
  EXPECT_EQ(ch.ServerDrainRing(server, producer.head, consume), 4u);
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(producer.Space(), 4u);
}

// An entry whose lap bit does not match its slot's lap was not written on
// this lap: draining it as published dies instead of consuming a stale word.
TEST(ChannelDeath, AnEntryFromAnotherLapDiesAtTheDrain) {
  auto machine = MakeMachine(2);
  machine->address_map().Add(
      Region{kTestChannelBase, kChannelStride, PageKind::kSmall4K, "chan"});
  Channel ch(kTestChannelBase, 4);
  Env client(*machine, 0);
  Env server(*machine, 1);
  RingProducer producer{ch, client};
  producer.Push(0x40);
  const Addr slot = kTestChannelBase + kRingEntriesOff;
  machine->memory().Write<std::uint64_t>(slot,
                                         machine->memory().Read<std::uint64_t>(slot) ^ kRingLapBit);
  EXPECT_DEATH_IF_SUPPORTED(ch.ServerDrainRing(server, producer.head, [](std::uint64_t) {}),
                            "lap bit does not match");
}

// A drain told a run is published checks that its last entry carries the
// run-end mark: staged stores alone publish nothing.
TEST(ChannelDeath, ARunWithoutItsRunEndMarkDiesAtTheDrain) {
  auto machine = MakeMachine(2);
  machine->address_map().Add(
      Region{kTestChannelBase, kChannelStride, PageKind::kSmall4K, "chan"});
  Channel ch(kTestChannelBase, 4);
  Env client(*machine, 0);
  Env server(*machine, 1);
  ch.RingStore(client, 0, 0x40);
  EXPECT_DEATH_IF_SUPPORTED(ch.ServerDrainRing(server, 1, [](std::uint64_t) {}),
                            "lacks its run-end mark");
}

}  // namespace
}  // namespace ngx
