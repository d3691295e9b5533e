// Deeper cache-hierarchy invariants: inclusion, back-invalidation, writeback
// integrity, and runner behaviour.
#include <gtest/gtest.h>

#include "src/alloc/registry.h"
#include "src/workload/churn.h"
#include "src/alloc/sim_lock.h"
#include "src/workload/runner.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

TEST(Hierarchy, L1IsSubsetOfL2) {
  Machine m(MachineConfig::Default(1));
  Env env(m, 0);
  std::uint64_t x = 1;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1;
    const Addr a = 0x10000 + (x % 100000) * 64;
    if (x & 1) {
      env.Store<std::uint64_t>(a, x);
    } else {
      env.Load<std::uint64_t>(a);
    }
  }
  Core& c = m.core(0);
  ASSERT_TRUE(c.has_l2());
  for (const Addr line : c.l1d().ValidLines()) {
    EXPECT_TRUE(c.l2()->Contains(line)) << "inclusion violated for line " << line;
  }
}

// The coherence directory lives in the LLC's lines, so the inclusive LLC must
// hold every privately cached line with exactly its holders as sharers.
TEST(Hierarchy, LlcHoldsEveryPrivateLineAndItsSharers) {
  MachineConfig cfg = MachineConfig::Default(4);
  for (CoreConfig& c : cfg.cores) {
    c.l1d.size_bytes = 1024;
    c.l1d.ways = 2;
    c.l2.size_bytes = 4096;
    c.l2.ways = 2;
  }
  cfg.cores[3] = CoreConfig::NearMemory();  // no L2
  cfg.next_line_prefetch = true;
  cfg.llc.size_bytes = 16 * 1024;  // 256 lines against a 1,024-line working set
  cfg.llc.ways = 4;
  Machine m(cfg);
  constexpr Addr kBase = 0x40000;
  constexpr std::size_t kLines = 1024;
  auto check = [&]() {
    for (int id = 0; id < m.num_cores(); ++id) {
      Core& c = m.core(id);
      std::vector<Addr> lines = c.l1d().ValidLines();
      if (c.has_l2()) {
        const std::vector<Addr> l2 = c.l2()->ValidLines();
        lines.insert(lines.end(), l2.begin(), l2.end());
      }
      for (const Addr line : lines) {
        ASSERT_TRUE(m.LlcContains(line)) << "core " << id << " line " << line;
        ASSERT_NE(m.SharersOf(line) & (1u << id), 0u) << "core " << id << " line " << line;
      }
    }
    // The prefetcher also reaches the line after the working set.
    for (Addr line = kBase; line <= kBase + kLines * 64; line += 64) {
      std::uint32_t holders = 0;
      for (int id = 0; id < m.num_cores(); ++id) {
        Core& c = m.core(id);
        if (c.l1d().Contains(line) || (c.has_l2() && c.l2()->Contains(line))) {
          holders |= 1u << id;
        }
      }
      ASSERT_EQ(m.SharersOf(line), holders) << "line " << line;
      const int owner = m.OwnerOf(line);
      if (owner != -1) {
        ASSERT_EQ(holders, 1u << owner) << "an owner is the only sharer, line " << line;
      }
    }
  };
  std::vector<std::uint64_t> shadow(kLines, 0);
  std::uint64_t x = 2024;
  for (int i = 1; i <= 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t slot = (x >> 8) % kLines;
    const Addr a = kBase + slot * 64;
    Env env(m, static_cast<int>((x >> 33) % 4));
    switch ((x >> 40) % 3) {
      case 0:
        ASSERT_EQ(env.Load<std::uint64_t>(a), shadow[slot]);
        break;
      case 1:
        shadow[slot] = x;
        env.Store<std::uint64_t>(a, x);
        break;
      default:
        ASSERT_EQ(env.AtomicFetchAdd(a, 1), shadow[slot]++);
        break;
    }
    if (i % 500 == 0) {
      ASSERT_NO_FATAL_FAILURE(check()) << "after op " << i;
    }
  }
}

TEST(Hierarchy, LlcEvictionBackInvalidatesPrivateCopies) {
  // Tiny LLC so evictions are easy to force.
  MachineConfig cfg = MachineConfig::Default(2);
  cfg.llc = CacheConfig{8 * 1024, 2, 40};
  Machine m(cfg);
  Env e0(m, 0);
  e0.Store<std::uint64_t>(0x1000, 7);
  ASSERT_TRUE(m.LlcContains(0x1000));
  // Thrash the LLC set containing 0x1000 from core 1.
  Env e1(m, 1);
  for (int i = 1; i <= 8; ++i) {
    e1.Load<std::uint64_t>(0x1000 + static_cast<Addr>(i) * 8 * 1024 / 2);
  }
  if (!m.LlcContains(0x1000)) {
    // Back-invalidation must have removed every private copy too.
    EXPECT_EQ(m.SharersOf(0x1000), 0u);
    EXPECT_EQ(m.OwnerOf(0x1000), -1);
  }
  // Data survives regardless (memory is the home).
  EXPECT_EQ(e0.Load<std::uint64_t>(0x1000), 7u);
}

TEST(Hierarchy, DirtyDataSurvivesFullEvictionChain) {
  MachineConfig cfg = MachineConfig::Default(1);
  cfg.cores[0].l1d.size_bytes = 1024;
  cfg.cores[0].l1d.ways = 2;
  cfg.cores[0].l2.size_bytes = 4096;
  cfg.cores[0].l2.ways = 2;
  cfg.llc = CacheConfig{16 * 1024, 2, 40};
  Machine m(cfg);
  Env env(m, 0);
  // Write a sequence far larger than every cache, then verify all of it.
  for (Addr i = 0; i < 4096; ++i) {
    env.Store<std::uint64_t>(0x100000 + i * 64, i ^ 0xABCDEF);
  }
  for (Addr i = 0; i < 4096; ++i) {
    ASSERT_EQ(env.Load<std::uint64_t>(0x100000 + i * 64), i ^ 0xABCDEF);
  }
  EXPECT_GT(m.memory_writes(), 0u) << "dirty evictions must reach memory";
}

TEST(Hierarchy, WritebackCountersMove) {
  MachineConfig cfg = MachineConfig::Default(1);
  cfg.cores[0].l1d.size_bytes = 1024;
  cfg.cores[0].l1d.ways = 2;
  cfg.cores[0].l2.size_bytes = 2048;
  cfg.cores[0].l2.ways = 2;
  Machine m(cfg);
  Env env(m, 0);
  for (Addr i = 0; i < 512; ++i) {
    env.Store<std::uint64_t>(0x5000 + i * 64, i);
  }
  EXPECT_GT(m.core(0).pmu().writebacks, 0u);
}

TEST(Runner, ServerCoreExcludedFromAppAggregate) {
  Machine m(MachineConfig::Default(3));
  auto alloc = CreateAllocator("tcmalloc", m);
  ChurnConfig cfg;
  cfg.live_blocks = 50;
  cfg.ops = 200;
  Churn workload(cfg);
  RunOptions opt;
  opt.cores = {0, 1};
  opt.server_cores = {2};
  Env server_env(m, 2);
  server_env.Work(12345);  // pretend server activity
  const RunResult r = RunWorkload(m, *alloc, workload, opt);
  EXPECT_EQ(r.server.instructions, 12345u);
  EXPECT_EQ(r.app.instructions,
            m.core(0).pmu().instructions + m.core(1).pmu().instructions);
  EXPECT_EQ(r.per_core.size(), 3u);
}

TEST(Runner, WallCyclesIsMaxOverAppCores) {
  Machine m(MachineConfig::Default(2));
  auto alloc = CreateAllocator("mimalloc", m);
  ChurnConfig cfg;
  cfg.live_blocks = 30;
  cfg.ops = 100;
  Churn workload(cfg);
  RunOptions opt;
  opt.cores = {0, 1};
  const RunResult r = RunWorkload(m, *alloc, workload, opt);
  EXPECT_EQ(r.wall_cycles, std::max(m.core(0).now(), m.core(1).now()));
}

TEST(Runner, FlushAtEndCanBeDisabled) {
  Machine m(MachineConfig::Default(1));
  auto alloc = CreateAllocator("tcmalloc", m);
  ChurnConfig cfg;
  cfg.live_blocks = 30;
  cfg.ops = 100;
  Churn workload(cfg);
  RunOptions opt;
  opt.cores = {0};
  opt.flush_at_end = false;
  RunWorkload(m, *alloc, workload, opt);
  // Without the flush, the thread cache may still hold blocks: footprint
  // stats are allowed to differ, but balance still holds.
  EXPECT_EQ(alloc->stats().mallocs, alloc->stats().frees);
}

TEST(SimLockDeath, DoubleAcquireAsserts) {
  auto machine = MakeMachine(1);
  SimLock lock(0x4000);
  Env env(*machine, 0);
  lock.Acquire(env);
  EXPECT_DEATH_IF_SUPPORTED(lock.Acquire(env), "run to completion");
}

TEST(Scheduler, TieBreaksByThreadIndexDeterministically) {
  Machine m(MachineConfig::Default(2));
  std::vector<int> order;
  struct T : SimThread {
    T(int c, std::vector<int>* o, int i) : core(c), order(o), id(i) {}
    int core;
    std::vector<int>* order;
    int id;
    int left = 2;
    int core_id() const override { return core; }
    bool Step(Env& env) override {
      order->push_back(id);
      env.Work(100);
      return --left > 0;
    }
  };
  T a(0, &order, 0);
  T b(1, &order, 1);
  Scheduler::Run(m, {&a, &b});
  // Equal clocks at every step: strict alternation starting with index 0.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1}));
}

}  // namespace
}  // namespace ngx
