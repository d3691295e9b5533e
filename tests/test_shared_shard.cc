// Shared-shard tests (DESIGN.md §15), at the engine: clients that share a
// shard share its one server timeline.
//
//  * DrainAll serves the clients' rings in client order, whoever published
//    first;
//  * a sync request sent during another client's service waits for that
//    service and no longer, and one sent after it is not delayed at all;
//  * batches are per client ring: one client's unbatched frees publish at
//    once while another client's staged run stays unpublished.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/offload/offload_engine.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

constexpr Addr kSharedChannelBase = 0x0700'0000'0000ull;

// Records the order clients were served in. A request runs 50 instructions
// of work, `slow_work` for `slow_client`.
class OrderRecordingServer : public OffloadServer {
 public:
  std::uint64_t HandleRequest(Env& env, int client, OffloadOp /*op*/,
                              std::uint64_t arg) override {
    env.Work(client == slow_client ? slow_work : 50);
    served.push_back(client);
    return arg + 1;
  }

  int slow_client = -1;
  std::uint64_t slow_work = 50;
  std::vector<int> served;
};

struct EngineRig {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<OffloadEngine> engine;
  OrderRecordingServer server;

  explicit EngineRig(int cores = 4) {
    machine = MakeMachine(cores);
    machine->address_map().Add(Region{kSharedChannelBase,
                                      kChannelStride * static_cast<std::uint64_t>(cores),
                                      PageKind::kSmall4K, "chan"});
    engine = std::make_unique<OffloadEngine>(*machine, /*server_core=*/cores - 1,
                                             kSharedChannelBase, /*ring_capacity=*/16);
    engine->set_server(&server);
  }

  // Sends a sync request from `client` at time `at` and returns its finish.
  std::uint64_t SyncAt(int client, std::uint64_t at) {
    machine->core(client).AdvanceTo(at);
    Env env(*machine, client);
    engine->SyncRequest(env, OffloadOp::kMalloc, 1);
    return env.now();
  }

  // The latest clock on the machine: a send there finds the server idle.
  std::uint64_t Latest() const {
    std::uint64_t t = 0;
    for (int c = 0; c < machine->num_cores(); ++c) {
      t = std::max(t, machine->core(c).now());
    }
    return t;
  }
};

// Clients sharing a shard get no priority over one another: DrainAll serves
// the rings by client id, not in the order the frees were published.
TEST(SharedShard, DrainAllServesRingsInClientOrder) {
  EngineRig rig;
  Env c0(*rig.machine, 0);
  Env c1(*rig.machine, 1);
  Env c2(*rig.machine, 2);
  rig.engine->AsyncRequest(c0, OffloadOp::kFree, 1);
  rig.engine->AsyncRequest(c2, OffloadOp::kFree, 2);
  rig.engine->AsyncRequest(c1, OffloadOp::kFree, 3);
  rig.engine->DrainAll();
  ASSERT_EQ(rig.server.served.size(), 3u);
  EXPECT_EQ(rig.server.served[0], 0);
  EXPECT_EQ(rig.server.served[1], 1);
  EXPECT_EQ(rig.server.served[2], 2);
}

// One server clock: a small client's sync request sent while a bulk client's
// service runs waits for that service to end. It then pays its own service
// and nothing more.
TEST(SharedShard, SyncSentDuringAnotherClientsServiceWaitsForItsEnd) {
  EngineRig rig;
  rig.server.slow_client = 2;
  rig.server.slow_work = 20000;
  rig.SyncAt(0, 0);  // one request each, so every mailbox line has moved
  rig.SyncAt(2, rig.Latest());
  std::uint64_t t = rig.Latest();
  const std::uint64_t round_trip = rig.SyncAt(0, t) - t;

  t = rig.Latest();
  const std::uint64_t bulk_finish = rig.SyncAt(2, t);
  ASSERT_GT(bulk_finish - t, 10 * round_trip);
  const std::uint64_t send = t + (bulk_finish - t) / 2;
  const std::uint64_t finish = rig.SyncAt(0, send);
  EXPECT_GE(finish, bulk_finish) << "served while the bulk service still ran";
  EXPECT_LE(finish - bulk_finish, round_trip);
}

// The coupling is the service in progress and nothing else: a sync request
// sent after the bulk client's service ended takes its unloaded round trip.
TEST(SharedShard, SyncSentAfterAnotherClientsServiceIsNotDelayed) {
  EngineRig rig;
  rig.server.slow_client = 2;
  rig.server.slow_work = 20000;
  rig.SyncAt(0, 0);
  rig.SyncAt(2, rig.Latest());
  std::uint64_t t = rig.Latest();
  const std::uint64_t round_trip = rig.SyncAt(0, t) - t;

  t = rig.Latest();
  const std::uint64_t bulk_finish = rig.SyncAt(2, t);
  const std::uint64_t send = bulk_finish + 100;
  EXPECT_EQ(rig.SyncAt(0, send) - send, round_trip);
}

// Batches are per client ring: client 0's unbatched frees publish at once,
// one doorbell each, while client 1's staged run on the same shard stays
// invisible to the server until its own publish.
TEST(SharedShard, UnbatchedFreesPublishPastAnotherClientsStagedBatch) {
  EngineRig rig;
  Env c0(*rig.machine, 0);
  Env c1(*rig.machine, 1);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rig.engine->StageFree(c1, 100 + i, /*batch=*/16), 0u);
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    rig.engine->AsyncRequest(c0, OffloadOp::kFree, 200 + i);
  }
  const OffloadEngineStats& st = rig.engine->stats();
  EXPECT_EQ(st.staged_frees, 5u);
  EXPECT_EQ(st.free_batches, 0u) << "client 1's batch is not full";
  EXPECT_EQ(st.ring_doorbells, 3u);
  EXPECT_EQ(st.async_enqueued, 3u) << "only the unbatched frees are visible to the shard";
  rig.engine->DrainAll();
  EXPECT_EQ(rig.server.served, (std::vector<int>{0, 0, 0}));

  EXPECT_EQ(rig.engine->PublishStaged(c1), 5u);
  EXPECT_EQ(st.free_batches, 1u);
  EXPECT_EQ(st.ring_doorbells, 4u) << "the staged run publishes with one doorbell";
  rig.engine->DrainAll();
  EXPECT_EQ(rig.server.served, (std::vector<int>{0, 0, 0, 1, 1, 1, 1, 1}));
  EXPECT_EQ(st.async_ops, st.async_enqueued);
}

}  // namespace
}  // namespace ngx
