// Tests for the TLB, address map, core timing, scheduler.
#include <gtest/gtest.h>

#include "src/sim/address_map.h"
#include "src/sim/core.h"
#include "src/sim/scheduler.h"
#include "src/sim/tlb.h"

namespace ngx {
namespace {

TEST(Tlb, HitAfterFill) {
  Tlb tlb(TlbConfig{});
  const Tlb::Result first = tlb.Lookup(0x1000, kSmallPageBytes);
  EXPECT_TRUE(first.walk);
  const Tlb::Result second = tlb.Lookup(0x1008, kSmallPageBytes);
  EXPECT_FALSE(second.l1_miss);
  EXPECT_EQ(second.extra_cycles, 0u);
}

TEST(Tlb, L2CatchesL1Evictions) {
  TlbConfig cfg;
  cfg.l1_small_entries = 8;
  cfg.l1_small_ways = 2;
  Tlb tlb(cfg);
  // Fill far beyond L1 capacity but within L2.
  for (Addr p = 0; p < 64; ++p) {
    tlb.Lookup(p * kSmallPageBytes, kSmallPageBytes);
  }
  // Revisit: L1 misses but L2 hits (no walk).
  const Tlb::Result r = tlb.Lookup(0, kSmallPageBytes);
  EXPECT_TRUE(r.l1_miss);
  EXPECT_FALSE(r.walk);
}

TEST(Tlb, HugeAndSmallPagesAreSeparate) {
  Tlb tlb(TlbConfig{});
  const Tlb::Result huge = tlb.Lookup(0x20'0000, kHugePageBytes);
  EXPECT_TRUE(huge.walk);
  const Tlb::Result again = tlb.Lookup(0x20'0000 + 64 * 1024, kHugePageBytes);
  EXPECT_FALSE(again.walk) << "same 2 MiB page";
}

TEST(AddressMap, FindAndPageSize) {
  AddressMap map;
  map.Add(Region{0x1000, 0x2000, PageKind::kHuge2M, "a"});
  map.Add(Region{0x8000, 0x1000, PageKind::kSmall4K, "b"});
  EXPECT_EQ(map.Find(0x1000)->name, "a");
  EXPECT_EQ(map.Find(0x2FFF)->name, "a");
  EXPECT_EQ(map.Find(0x3000), nullptr);
  EXPECT_EQ(map.PageBytesFor(0x1000), kHugePageBytes);
  EXPECT_EQ(map.PageBytesFor(0x8000), kSmallPageBytes);
  EXPECT_EQ(map.PageBytesFor(0x5000), kSmallPageBytes);  // unmapped default
  EXPECT_EQ(map.TotalMappedBytes(), 0x3000u);
  EXPECT_TRUE(map.Remove(0x1000));
  EXPECT_EQ(map.Find(0x1000), nullptr);
}

TEST(CoreTiming, WorkUsesCpi) {
  Core fast(CoreConfig{}, 0);  // cpi 0.5
  CoreConfig slow_cfg = CoreConfig::InOrder();  // cpi 1.0
  Core slow(slow_cfg, 1);
  fast.Work(1000);
  slow.Work(1000);
  EXPECT_EQ(fast.now(), 500u);
  EXPECT_EQ(slow.now(), 1000u);
  EXPECT_EQ(fast.pmu().instructions, 1000u);
}

TEST(CoreTiming, AdvanceToNeverRewinds) {
  Core c(CoreConfig{}, 0);
  c.AdvanceTo(100);
  EXPECT_EQ(c.now(), 100u);
  c.AdvanceTo(50);
  EXPECT_EQ(c.now(), 100u);
}

TEST(CoreTiming, OooHidesLoadLatency) {
  Core ooo(CoreConfig{}, 0);
  Core ino(CoreConfig::InOrder(), 1);
  ooo.ChargeAccess(AccessType::kLoad, 200);
  ino.ChargeAccess(AccessType::kLoad, 200);
  EXPECT_LT(ooo.now(), ino.now());
  // Atomics are never hidden.
  Core ooo2(CoreConfig{}, 2);
  ooo2.ChargeAccess(AccessType::kAtomicRmw, 200);
  EXPECT_EQ(ooo2.now(), 200u);
}

TEST(CoreTiming, NearMemoryPreset) {
  const CoreConfig c = CoreConfig::NearMemory();
  EXPECT_EQ(c.type, CoreType::kNearMemory);
  EXPECT_FALSE(c.has_l2);
  EXPECT_GT(c.mem_latency_override, 0u);
}

class CountingThread : public SimThread {
 public:
  CountingThread(int core, std::uint64_t work_per_step, int steps,
                 std::vector<int>* order, int id)
      : core_(core), work_(work_per_step), steps_(steps), order_(order), id_(id) {}
  int core_id() const override { return core_; }
  bool Step(Env& env) override {
    order_->push_back(id_);
    env.Work(work_);
    return --steps_ > 0;
  }

 private:
  int core_;
  std::uint64_t work_;
  int steps_;
  std::vector<int>* order_;
  int id_;
};

TEST(Scheduler, AdvancesSmallestClockFirst) {
  Machine m(MachineConfig::Default(2));
  std::vector<int> order;
  CountingThread slow(0, 1000, 3, &order, 0);
  CountingThread fast(1, 100, 3, &order, 1);
  Scheduler::Run(m, {&slow, &fast});
  // After slow's first step (t=500), fast should run several times.
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], 0);  // tie at 0 broken by index
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 1);
}

TEST(Scheduler, MaxStepsGuards) {
  Machine m(MachineConfig::Default(1));
  std::vector<int> order;
  CountingThread t(0, 1, 1000000, &order, 0);
  Scheduler::Run(m, {&t}, 10);
  EXPECT_EQ(order.size(), 10u);
}

}  // namespace
}  // namespace ngx
