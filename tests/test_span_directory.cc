// Elastic heap fabric tests: span-directory bookkeeping (including the paged
// table's host footprint on the full 512-GiB window), the kDonateSpan
// protocol end to end (ownership transfer, frees routed mid-donation, the
// same protocol on aggregated shards), batched remote frees staged in the
// ring, and the NGX_CHECK death tests that guard double donation.
#include <gtest/gtest.h>

#include <vector>

#include "src/alloc/layout.h"
#include "src/core/nextgen_malloc.h"
#include "src/core/span_directory.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

constexpr std::uint64_t kSpan = 64 * 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

// ---- SpanDirectory bookkeeping units ----

TEST(SpanDirectory, InitialSlicesMatchTheOldDivide) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  EXPECT_EQ(d.num_spans(), 128u);
  EXPECT_EQ(d.free_spans(0), 64u);
  EXPECT_EQ(d.free_spans(1), 64u);
  EXPECT_EQ(d.OwnerOfAddr(kNgxHeapBase), 0);
  EXPECT_EQ(d.OwnerOfAddr(kNgxHeapBase + 4 * kMiB - 1), 0);
  EXPECT_EQ(d.OwnerOfAddr(kNgxHeapBase + 4 * kMiB), 1);
  EXPECT_EQ(d.OwnerOfAddr(kNgxHeapBase + 8 * kMiB - 1), 1);
}

TEST(SpanDirectory, MapUnmapRecycleRoundTrip) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  d.NoteMapped(0, kNgxHeapBase, 2 * kSpan);
  EXPECT_EQ(d.free_spans(0), 62u);
  // Partial unmap coverage must not recycle the still-live span.
  d.NoteUnmapped(0, kNgxHeapBase, kSpan / 2);
  EXPECT_EQ(d.free_spans(0), 62u);
  d.NoteUnmapped(0, kNgxHeapBase, 2 * kSpan);
  EXPECT_EQ(d.free_spans(0), 64u);
  // The recycled run is directly re-grantable.
  EXPECT_EQ(d.TakeRecycled(0, 2, kSpan), kNgxHeapBase);
  EXPECT_EQ(d.TakeRecycled(0, 1, kSpan), kNullAddr) << "pool drained";
  EXPECT_EQ(d.free_spans(0), 64u) << "taken spans return to the provider window";
}

TEST(SpanDirectory, TransferMovesOwnershipAndCounts) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  const Addr span5 = kNgxHeapBase + 5 * kSpan;
  d.TransferRange(span5, 3, 0, 1);
  EXPECT_EQ(d.OwnerOfAddr(span5), 1);
  EXPECT_EQ(d.OwnerOfAddr(span5 + 3 * kSpan), 0);
  EXPECT_EQ(d.free_spans(0), 61u);
  EXPECT_EQ(d.free_spans(1), 67u);
  EXPECT_EQ(d.donated_out(0), 3u);
  EXPECT_EQ(d.donated_in(1), 3u);
  EXPECT_EQ(d.total_donated(), 3u);
}

// The table is paged by use, not by window: a full 512-GiB directory holds
// no chunk until a span is written, untouched spans read as their
// construction state, and one mapping allocates one chunk.
TEST(SpanDirectory, FullWindowAllocatesOnlyWrittenChunks) {
  for (const int shards : {2, 512}) {
    SCOPED_TRACE(shards);
    SpanDirectory d(kNgxHeapBase, kHeapWindow, kSpan, shards);
    ASSERT_EQ(d.num_spans(), kHeapWindow / kSpan);
    EXPECT_EQ(d.materialized_chunks(), 0u);
    const std::uint64_t per_shard = d.num_spans() / static_cast<std::uint64_t>(shards);
    for (int s = 0; s < shards; ++s) {
      const std::uint64_t first = static_cast<std::uint64_t>(s) * per_shard;
      for (const std::uint64_t span : {first, first + per_shard / 2, first + per_shard - 1}) {
        ASSERT_EQ(d.OwnerOfSpan(span), s) << "span " << span;
        ASSERT_EQ(d.HomeOfSpan(span), s) << "span " << span;
        ASSERT_EQ(d.StateOfSpan(span), SpanDirectory::SpanState::kUngranted) << "span " << span;
      }
      ASSERT_EQ(d.free_spans(s), per_shard);
    }
    EXPECT_EQ(d.materialized_chunks(), 0u) << "reads must never allocate";
    const int last = shards - 1;
    const std::uint64_t mapped = static_cast<std::uint64_t>(last) * per_shard + per_shard / 2;
    d.NoteMapped(last, d.AddrOfSpan(mapped), 2 * kSpan);
    EXPECT_EQ(d.materialized_chunks(), 1u);
    EXPECT_EQ(d.StateOfSpan(mapped + 1), SpanDirectory::SpanState::kGranted);
    EXPECT_EQ(d.StateOfSpan(mapped + 2), SpanDirectory::SpanState::kUngranted);
    EXPECT_EQ(d.OwnerOfSpan(mapped + 2), last);
    EXPECT_EQ(d.free_spans(last), per_shard - 2);
  }
}

// A multi-shard fabric on the default window touches a few chunks per
// shard: the directory's host footprint follows the heap in use.
TEST(SpanDirectory, FabricChurnAllocatesAFewChunksPerShard) {
  auto machine = MakeMachine(4);  // clients 0-1, shards on cores 2-3
  NgxConfig cfg = NgxConfig::PaperPrototype();
  cfg.num_shards = 2;
  auto sys = MakeNgxSystem(*machine, cfg);
  const SpanDirectory& d = *sys.allocator->directory();
  ASSERT_EQ(d.num_spans(), kHeapWindow / kSpan);
  // Both clients free each other's blocks: the shared shadow heap hands
  // every Run the other core's live blocks too.
  ShadowHeapExerciser ex(*machine, *sys.allocator, 17);
  for (int round = 0; round < 4; ++round) {
    for (int core = 0; core < 2; ++core) {
      ex.Run(core, 400, 64, 16, 4096);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  ex.FreeAll(1);
  for (int core = 0; core < 2; ++core) {
    Env env(*machine, core);
    sys.allocator->Flush(env);
  }
  sys.fabric->DrainAll();
  const AllocatorStats stats = sys.allocator->stats();
  EXPECT_EQ(stats.mallocs, stats.frees);
  EXPECT_GE(d.materialized_chunks(), 2u) << "both shards must map spans";
  EXPECT_LE(d.materialized_chunks(), 2u * 2);
}

TEST(SpanDirectoryDeath, DonatingAMappedSpanDies) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  d.NoteMapped(0, kNgxHeapBase, kSpan);
  EXPECT_DEATH_IF_SUPPORTED(d.TransferSpan(0, 0, 1), "still mapped");
}

TEST(SpanDirectoryDeath, DoubleDonationDies) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  d.TransferSpan(7, 0, 1);
  // Shard 0 no longer owns span 7; donating it again is the double-donation
  // bug the directory exists to catch.
  EXPECT_DEATH_IF_SUPPORTED(d.TransferSpan(7, 0, 1), "double donation");
}

// ---- End-to-end donation through the fabric ----

NgxConfig DonationConfig() {
  NgxConfig cfg;  // offloaded, async frees, segregated metadata
  cfg.num_shards = 2;
  cfg.hugepage_spans = false;   // 64 KiB grants, exhaustion reachable
  cfg.heap_window = 8 * kMiB;   // 4 MiB (64 spans) per shard
  cfg.span_donation = true;
  return cfg;
}

// Client 0 routes to shard 0 under static_by_client; retaining 16 KiB blocks
// (4 per span) exhausts shard 0's 64-span slice and forces donation.
TEST(SpanDonation, OwnershipTransferVisibleAfterDonation) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationConfig());
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 280 && sys.allocator->directory()->donated_in(0) == 0; ++i) {
    const Addr a = sys.allocator->Malloc(env, 16 * 1024);
    ASSERT_NE(a, kNullAddr) << "donation must keep shard 0 serviceable, alloc " << i;
    blocks.push_back(a);
  }
  const SpanDirectory& d = *sys.allocator->directory();
  ASSERT_GT(d.donated_in(0), 0u) << "shard 0 never ran dry";
  EXPECT_EQ(d.donated_out(1), d.donated_in(0));
  EXPECT_EQ(sys.allocator->partition_oom_failures(), 0u);
  // Donated spans sit in shard 1's original slice but are owned by shard 0.
  bool saw_cross_slice = false;
  for (const Addr a : blocks) {
    if (a >= kNgxHeapBase + 4 * kMiB) {
      EXPECT_EQ(sys.allocator->ShardOfAddr(a), 0);
      saw_cross_slice = true;
    }
  }
  EXPECT_TRUE(saw_cross_slice) << "no block was carved from a donated span";
}

TEST(SpanDonation, FreeRoutedMidDonationLandsAtTheNewOwner) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationConfig());
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 280 && sys.allocator->directory()->donated_in(0) == 0; ++i) {
    const Addr a = sys.allocator->Malloc(env, 16 * 1024);
    ASSERT_NE(a, kNullAddr);
    blocks.push_back(a);
  }
  ASSERT_GT(sys.allocator->directory()->donated_in(0), 0u);
  Addr donated_block = kNullAddr;
  for (const Addr a : blocks) {
    if (a >= kNgxHeapBase + 4 * kMiB) {
      donated_block = a;
    }
  }
  ASSERT_NE(donated_block, kNullAddr);
  // The address lies in shard 1's ORIGINAL slice; the free must go to the
  // span's current owner (shard 0) or the serving heap would corrupt
  // another shard's metadata.
  const std::uint64_t frees_before = sys.allocator->shard_stats(0).frees;
  sys.allocator->Free(env, donated_block);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->shard_stats(0).frees, frees_before + 1);
  EXPECT_EQ(sys.allocator->shard_stats(1).frees, 0u);
}

// Every shard carves with the global heap_kind, so donation needs no layout
// check: an aggregated fabric grafts and carves donated spans the same way,
// and frees of blocks carved from them reach the new owner.
TEST(SpanDonation, AggregatedShardsCarveDonatedSpans) {
  auto machine = MakeMachine(3);
  NgxConfig cfg = DonationConfig();
  cfg.heap_kind = HeapKind::kAggregated;
  auto sys = MakeNgxSystem(*machine, cfg);
  ASSERT_EQ(sys.allocator->heap(1).name(), "ngx-aggregated");
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 280 && sys.allocator->directory()->donated_in(0) == 0; ++i) {
    const Addr a = sys.allocator->Malloc(env, 16 * 1024);
    ASSERT_NE(a, kNullAddr) << "donation must keep shard 0 serviceable, alloc " << i;
    blocks.push_back(a);
  }
  const SpanDirectory& d = *sys.allocator->directory();
  ASSERT_GT(d.donated_in(0), 0u) << "shard 0 never ran dry";
  EXPECT_EQ(d.donated_out(1), d.donated_in(0));
  EXPECT_EQ(sys.allocator->partition_oom_failures(), 0u);
  bool saw_cross_slice = false;
  for (const Addr a : blocks) {
    if (a >= kNgxHeapBase + 4 * kMiB) {
      EXPECT_EQ(sys.allocator->ShardOfAddr(a), 0);
      saw_cross_slice = true;
    }
  }
  EXPECT_TRUE(saw_cross_slice) << "no block was carved from a donated span";
  for (const Addr a : blocks) {
    sys.allocator->Free(env, a);
  }
  sys.allocator->Flush(env);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->shard_stats(1).frees, 0u);
  const AllocatorStats stats = sys.allocator->stats();
  EXPECT_EQ(stats.mallocs, stats.frees);
  EXPECT_EQ(stats.bytes_live, 0u);
}

// Without donation the same skewed load must hit the partition wall (the
// contrast that makes the previous tests meaningful).
TEST(SpanDonation, WithoutDonationTheShardRunsDry) {
  auto machine = MakeMachine(3);
  NgxConfig cfg = DonationConfig();
  cfg.span_donation = false;
  auto sys = MakeNgxSystem(*machine, cfg);
  Env env(*machine, 0);
  bool saw_null = false;
  for (int i = 0; i < 280 && !saw_null; ++i) {
    saw_null = sys.allocator->Malloc(env, 16 * 1024) == kNullAddr;
  }
  EXPECT_TRUE(saw_null);
  EXPECT_GT(sys.allocator->partition_oom_failures(), 0u);
  EXPECT_EQ(sys.allocator->directory()->total_donated(), 0u);
}

// ---- Batched remote frees ----

TEST(BatchedFrees, FlushOnTeardownLosesNoFrees) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.free_batch = 8;
  auto sys = MakeNgxSystem(*machine, cfg);
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 5; ++i) {
    blocks.push_back(sys.allocator->Malloc(env, 256));
    ASSERT_NE(blocks.back(), kNullAddr);
  }
  for (const Addr a : blocks) {
    sys.allocator->Free(env, a);
  }
  // 5 frees are staged with no run-end mark: none is visible to the server.
  EXPECT_EQ(sys.fabric->TotalStats().async_ops, 0u);
  EXPECT_EQ(sys.fabric->TotalStats().ring_doorbells, 0u);
  EXPECT_EQ(sys.allocator->buffered_frees(), 5u);
  sys.allocator->Flush(env);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->stats().frees, 5u) << "teardown flush lost frees";
  EXPECT_EQ(sys.allocator->free_flushes(), 1u) << "one partial batch";
}

TEST(BatchedFrees, OneDoorbellPerBatch) {
  auto run = [](std::uint32_t free_batch) {
    auto machine = MakeMachine(2);
    NgxConfig cfg;
    cfg.free_batch = free_batch;
    auto sys = MakeNgxSystem(*machine, cfg);
    Env env(*machine, 0);
    std::vector<Addr> blocks;
    for (int i = 0; i < 64; ++i) {
      blocks.push_back(sys.allocator->Malloc(env, 256));
    }
    for (const Addr a : blocks) {
      sys.allocator->Free(env, a);
    }
    sys.allocator->Flush(env);
    sys.fabric->DrainAll();
    EXPECT_EQ(sys.allocator->stats().frees, 64u);
    return sys.fabric->TotalStats();
  };
  const OffloadEngineStats unbatched = run(1);
  const OffloadEngineStats batched = run(8);
  EXPECT_EQ(unbatched.ring_doorbells, 64u);
  EXPECT_EQ(batched.ring_doorbells, 8u) << "64 frees / 8 per doorbell";
  EXPECT_EQ(unbatched.async_ops, batched.async_ops) << "same entries, fewer doorbells";
}

// xmalloc's pattern: a client frees only to a shard it never mallocs from,
// so no sync request of its own ever drains that ring. A doorbell that
// finds the ring still holding the previous batch kicks the shard's drain
// of the whole ring instead, so the ring never fills.
TEST(BatchedFrees, ForeignShardFreesNeverStallOnTheRing) {
  auto machine = MakeMachine(4);  // clients 0-1, shards on cores 2-3
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.free_batch = 8;
  auto sys = MakeNgxSystem(*machine, cfg);
  Env producer(*machine, 1);  // static_by_client: client 1 -> shard 1
  Env consumer(*machine, 0);  // client 0 mallocs from shard 0 only
  constexpr std::uint64_t kFrees = 512;  // eight times the 64-entry ring
  std::vector<Addr> blocks;
  for (std::uint64_t i = 0; i < kFrees; ++i) {
    blocks.push_back(sys.allocator->Malloc(producer, 256));
    ASSERT_EQ(sys.allocator->ShardOfAddr(blocks.back()), 1);
  }
  for (const Addr a : blocks) {
    sys.allocator->Free(consumer, a);
  }
  const OffloadEngineStats& st = sys.fabric->shard_stats(1);
  EXPECT_EQ(sys.fabric->TotalStats().ring_full_stalls, 0u);
  EXPECT_EQ(st.ring_doorbells, kFrees / 8);
  EXPECT_EQ(sys.allocator->free_flushes(), kFrees / 8);
  EXPECT_EQ(sys.allocator->buffered_frees(), kFrees);
  EXPECT_EQ(st.async_enqueued, kFrees);
  EXPECT_EQ(st.async_ops, kFrees) << "every published entry drained before teardown";
  sys.allocator->Flush(consumer);
  sys.allocator->Flush(producer);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->stats().frees, kFrees);
  EXPECT_EQ(sys.allocator->stats().bytes_live, 0u);
}

// Staged frees sit in the very ring slots past the head that any other push
// from the same client would write. A kRefillStash kick, an unbatched free
// and a mid-batch Flush must each publish the staged run first; otherwise
// their entry overwrites a staged free and that block is lost.
TEST(BatchedFrees, OtherPushesPublishTheStagedBatchFirst) {
  auto machine = MakeMachine(2);
  NgxConfig cfg;
  cfg.prediction = true;
  cfg.stash_pipeline = true;
  cfg.free_batch = 8;
  auto sys = MakeNgxSystem(*machine, cfg);
  NgxAllocator& alloc = *sys.allocator;
  Env env(*machine, 0);
  // Blocks above the stash's largest class bypass it: each free is staged.
  std::vector<Addr> large;
  for (int i = 0; i < 12; ++i) {
    large.push_back(alloc.Malloc(env, 40 * 1024));
    ASSERT_NE(large.back(), kNullAddr);
  }
  const auto stage = [&](int n) {
    for (int i = 0; i < n; ++i) {
      alloc.Free(env, large.back());
      large.pop_back();
    }
  };

  stage(3);
  EXPECT_EQ(alloc.free_flushes(), 0u);
  std::vector<Addr> small;
  while (alloc.stash_refills() == 0 && small.size() < 256) {
    small.push_back(alloc.Malloc(env, 64));
  }
  ASSERT_GT(alloc.stash_refills(), 0u) << "the small-block stream must post a refill";
  EXPECT_EQ(alloc.free_flushes(), 1u) << "the refill kick publishes the staged run first";

  stage(2);
  sys.fabric->AsyncRequest(env, 0, OffloadOp::kFree, large.back());
  large.pop_back();
  EXPECT_EQ(alloc.free_flushes(), 2u) << "an unbatched free publishes the staged run first";

  stage(5);
  for (const Addr a : small) {
    alloc.Free(env, a);  // refills the stash, so Flush has blocks to return
  }
  alloc.Flush(env);
  EXPECT_EQ(alloc.free_flushes(), 3u) << "Flush publishes one partial batch";
  stage(1);
  alloc.Flush(env);
  sys.fabric->DrainAll();
  const OffloadEngineStats st = sys.fabric->TotalStats();
  EXPECT_EQ(st.async_ops, st.async_enqueued);
  EXPECT_EQ(alloc.buffered_frees(), 11u);
  const AllocatorStats books = alloc.stats();
  EXPECT_EQ(books.frees, books.mallocs) << "a staged free was overwritten";
  EXPECT_EQ(books.bytes_live, 0u);
}

// The largest free_batch the constructor accepts fills the ring exactly: the
// batch publishes with one doorbell and never stalls on a full ring.
TEST(BatchedFrees, WholeRingBatchPublishesWithoutAStall) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.free_batch = kNgxRingCapacity;
  auto sys = MakeNgxSystem(*machine, cfg, 2);
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (std::uint32_t i = 0; i < kNgxRingCapacity; ++i) {
    blocks.push_back(sys.allocator->Malloc(env, 64));
    ASSERT_NE(blocks.back(), kNullAddr);
  }
  for (const Addr a : blocks) {
    sys.allocator->Free(env, a);
  }
  const OffloadEngineStats& st = sys.fabric->shard_stats(0);
  EXPECT_EQ(st.free_batches, 1u);
  EXPECT_EQ(st.staged_frees, kNgxRingCapacity);
  EXPECT_EQ(st.async_enqueued, kNgxRingCapacity);
  EXPECT_EQ(st.ring_full_stalls, 0u);
  sys.allocator->Flush(env);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->stats().mallocs, sys.allocator->stats().frees);
}

// Queue depth is the engine's own published-minus-drained count, so entries
// pushed straight on an engine (bypassing the fabric) drain back to zero.
TEST(FabricQueueDepth, ClampsAtZeroWhenDrainsOutrunEnqueues) {
  auto machine = MakeMachine(3);
  NgxConfig cfg;
  cfg.num_shards = 2;
  auto sys = MakeNgxSystem(*machine, cfg);
  Env env(*machine, 0);
  const Addr a = sys.allocator->Malloc(env, 256);
  ASSERT_NE(a, kNullAddr);
  // Push the free on the owning engine directly, bypassing the fabric, then
  // drain.
  const int shard = sys.allocator->ShardOfAddr(a);
  sys.fabric->shard(shard).AsyncRequest(env, OffloadOp::kFree, a);
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.fabric->QueueDepth(shard), 0u)
      << "unsigned underflow would report a huge depth";
}

// ---- Cluster-aware placement ----

TEST(Placement, PerClusterPutsServersWithTheirClients) {
  MachineConfig mc = MachineConfig::Default(8);
  mc.cluster_cores = 2;
  Machine machine(mc);
  NgxConfig cfg;
  cfg.num_shards = 2;
  // Clients 0 and 3: static_by_client sends client 0 to shard 0 and client 3
  // to shard 1. Their clusters ({0,1} and {2,3}) each have one free core.
  const std::vector<int> cores = ChooseServerCores(machine, cfg, {0, 3});
  ASSERT_EQ(cores.size(), 2u);
  EXPECT_EQ(cores[0], 1) << "shard 0 lands in client 0's cluster";
  EXPECT_EQ(cores[1], 2) << "shard 1 lands in client 3's cluster";
}

// The chosen cores are a plain server-core list for MakeNgxSystem; without
// one, MakeNgxSystem puts the shards on the machine's last cores.
TEST(Placement, ChosenCoresAndTheDefaultBothBuildTheFabric) {
  MachineConfig mc = MachineConfig::Default(8);
  mc.cluster_cores = 2;
  NgxConfig cfg;
  cfg.num_shards = 2;
  Machine placed_machine(mc);
  const NgxSystem placed =
      MakeNgxSystem(placed_machine, cfg, ChooseServerCores(placed_machine, cfg, {0, 3}));
  EXPECT_EQ(placed.fabric->server_cores(), (std::vector<int>{1, 2}));
  Machine tail_machine(mc);
  const NgxSystem tail = MakeNgxSystem(tail_machine, cfg);
  EXPECT_EQ(tail.fabric->server_cores(), (std::vector<int>{6, 7}));
}

TEST(Placement, PerClusterFallsBackWhenTheClusterIsFull) {
  MachineConfig mc = MachineConfig::Default(4);
  mc.cluster_cores = 2;
  Machine machine(mc);
  NgxConfig cfg;
  cfg.num_shards = 1;
  // Both cores of the majority cluster {0,1} are clients; the shard takes
  // the lowest free core elsewhere.
  const std::vector<int> cores = ChooseServerCores(machine, cfg, {0, 1});
  ASSERT_EQ(cores.size(), 1u);
  EXPECT_EQ(cores[0], 2);
}

TEST(PlacementDeath, NoFreeCoreForAShardAborts) {
  MachineConfig mc = MachineConfig::Default(4);
  mc.cluster_cores = 2;
  Machine machine(mc);
  NgxConfig cfg;
  EXPECT_DEATH_IF_SUPPORTED((void)ChooseServerCores(machine, cfg, {0, 1, 2, 3}),
                            "not enough free cores for the shard servers");
}

TEST(PlacementDeath, MachineWithoutClustersAborts) {
  Machine machine(MachineConfig::Default(4));  // cluster_cores = 0
  NgxConfig cfg;
  EXPECT_DEATH_IF_SUPPORTED((void)ChooseServerCores(machine, cfg, {0}),
                            "cluster-aware placement needs MachineConfig::cluster_cores");
}

TEST(Placement, SameClusterTransfersAreCheaper) {
  MachineConfig mc = MachineConfig::Default(4);
  mc.cluster_cores = 2;
  mc.same_cluster_transfer_latency = 30;
  Machine machine(mc);
  // Core 1 dirties a line; a same-cluster reader (core 0) pays less than a
  // cross-cluster reader (core 2) for the equivalent HITM service.
  const Addr line_a = kWorkloadBase;
  const Addr line_b = kWorkloadBase + 4096;
  machine.address_map().Add(Region{line_a, 4096, PageKind::kSmall4K, "t"});
  machine.address_map().Add(Region{line_b, 4096, PageKind::kSmall4K, "t"});
  Env w1(machine, 1);
  w1.Store<std::uint64_t>(line_a, 1);
  w1.Store<std::uint64_t>(line_b, 1);
  Env near(machine, 0);
  Env far(machine, 2);
  const std::uint64_t t_near0 = near.now();
  near.Load<std::uint64_t>(line_a);
  const std::uint64_t near_cost = near.now() - t_near0;
  const std::uint64_t t_far0 = far.now();
  far.Load<std::uint64_t>(line_b);
  const std::uint64_t far_cost = far.now() - t_far0;
  EXPECT_LT(near_cost, far_cost);
}

}  // namespace
}  // namespace ngx
