// Tests for the offload channel protocol and engine timing.
#include <gtest/gtest.h>

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
