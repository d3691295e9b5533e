// Tests for the offload channel protocol and engine timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/offload/channel.h"
#include "src/offload/offload_engine.h"
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
    return arg + 2;
  }

  std::uint64_t work_per_request = 50;
  int last_client = -1;
  OffloadOp last_op = OffloadOp::kMalloc;
  std::vector<std::uint64_t> freed;
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

TEST(Channel, RingWrapsAround) {
  auto machine = MakeMachine(2);
  machine->address_map().Add(
      Region{kTestChannelBase, kChannelStride, PageKind::kSmall4K, "chan"});
  Channel ch(kTestChannelBase, 4);
  Env client(*machine, 0);
  Env server(*machine, 1);
  std::vector<std::uint64_t> got;
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_GT(ch.RingSpace(client), 0u);
      ch.RingPush(client, round * 10 + i);
    }
    EXPECT_EQ(ch.RingSpace(client), 0u);
    ch.ServerDrainRingBounded(server, 4, [&](std::uint64_t v) { got.push_back(v); });
  }
  ASSERT_EQ(got.size(), 12u);
  EXPECT_EQ(got[4], 10u);
  EXPECT_EQ(got[11], 23u);
}

}  // namespace
}  // namespace ngx
