// Coverage for the Env facade, PMU bookkeeping, and machine config edges.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ngx {
namespace {

TEST(Env, BulkBytesRoundTrip) {
  auto machine = MakeMachine(1);
  Env env(*machine, 0);
  std::vector<std::uint8_t> src(300);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i);
  }
  env.StoreBytes(0x1000, src.data(), static_cast<std::uint32_t>(src.size()));
  std::vector<std::uint8_t> dst(src.size());
  env.LoadBytes(0x1000, dst.data(), static_cast<std::uint32_t>(dst.size()));
  EXPECT_EQ(src, dst);
  // 300 bytes starting line-aligned = 5 lines, once for stores, once for loads.
  EXPECT_EQ(machine->core(0).pmu().stores, 5u);
  EXPECT_EQ(machine->core(0).pmu().loads, 5u);
}

TEST(Env, TouchChargesWithoutPayload) {
  auto machine = MakeMachine(1);
  Env env(*machine, 0);
  env.TouchWrite(0x2000, 128);
  EXPECT_EQ(machine->core(0).pmu().stores, 2u);
  EXPECT_EQ(machine->memory().Read<std::uint64_t>(0x2000), 0u)
      << "touch must not fabricate data";
  env.TouchRead(0x2000, 1);
  EXPECT_EQ(machine->core(0).pmu().loads, 1u);
}

TEST(Env, UnalignedAccessSpanningLinesChargesBoth) {
  auto machine = MakeMachine(1);
  Env env(*machine, 0);
  env.Store<std::uint64_t>(0x103C, 42);  // crosses the 0x1040 line boundary
  EXPECT_EQ(machine->core(0).pmu().stores, 2u);
  EXPECT_EQ(env.Load<std::uint64_t>(0x103C), 42u);
}

TEST(Env, NowTracksCoreClock) {
  auto machine = MakeMachine(2);
  Env e0(*machine, 0);
  Env e1(*machine, 1);
  e0.Work(1000);
  EXPECT_GT(e0.now(), 0u);
  EXPECT_EQ(e1.now(), 0u) << "clocks are per core";
}

TEST(Pmu, AdditionIsFieldwise) {
  PmuCounters a;
  a.cycles = 10;
  a.loads = 3;
  a.llc_load_misses = 2;
  a.alloc_cycles = 5;
  PmuCounters b;
  b.cycles = 5;
  b.loads = 1;
  b.dtlb_store_misses = 7;
  const PmuCounters c = a + b;
  EXPECT_EQ(c.cycles, 15u);
  EXPECT_EQ(c.loads, 4u);
  EXPECT_EQ(c.llc_load_misses, 2u);
  EXPECT_EQ(c.dtlb_store_misses, 7u);
  EXPECT_EQ(c.alloc_cycles, 5u);
}

TEST(Pmu, MpkiAndSharesGuardDivideByZero) {
  PmuCounters p;
  EXPECT_EQ(p.LlcLoadMpki(), 0.0);
  EXPECT_EQ(p.Ipc(), 0.0);
  EXPECT_EQ(p.AllocCycleShare(), 0.0);
  p.instructions = 1000;
  p.llc_load_misses = 5;
  EXPECT_DOUBLE_EQ(p.LlcLoadMpki(), 5.0);
}

TEST(Pmu, ToStringMentionsKeyCounters) {
  PmuCounters p;
  p.cycles = 123;
  p.instructions = 456;
  const std::string s = p.ToString();
  EXPECT_NE(s.find("cycles=123"), std::string::npos);
  EXPECT_NE(s.find("LLC-load-misses"), std::string::npos);
  EXPECT_NE(s.find("dTLB-load-misses"), std::string::npos);
}

TEST(Machine, AllocScopeNests) {
  auto machine = MakeMachine(1);
  Env env(*machine, 0);
  {
    AllocScope outer(env);
    env.Work(10);
    {
      AllocScope inner(env);
      env.Work(10);
    }
    env.Work(10);
  }
  env.Work(10);
  EXPECT_EQ(machine->core(0).pmu().alloc_instructions, 30u);
  EXPECT_EQ(machine->core(0).pmu().instructions, 40u);
}

TEST(Machine, FractionalCpiAccumulatesExactly) {
  MachineConfig cfg = MachineConfig::Default(1);
  cfg.cores[0].cpi = 0.3;
  Machine machine(cfg);
  Env env(machine, 0);
  for (int i = 0; i < 1000; ++i) {
    env.Work(1);
  }
  // 1000 * 0.3 = 300 cycles; the sub-cycle accumulator bounds rounding
  // drift to below one cycle (0.3 is not exactly representable).
  EXPECT_NEAR(static_cast<double>(machine.core(0).now()), 300.0, 1.0);
}

TEST(Machine, HitmNotCountedWhenDisabled) {
  MachineConfig cfg = MachineConfig::Default(2);
  cfg.count_hitm_as_llc_miss = false;
  Machine machine(cfg);
  Env e0(machine, 0);
  Env e1(machine, 1);
  e0.Store<std::uint64_t>(0x1000, 1);
  e1.Load<std::uint64_t>(0x1000);
  EXPECT_EQ(machine.core(1).pmu().remote_hitm, 1u);
  EXPECT_EQ(machine.core(1).pmu().llc_load_misses, 0u);
}

TEST(Machine, ScaledWorkstationIsSmallerThanDefault) {
  const MachineConfig def = MachineConfig::Default(1);
  const MachineConfig scaled = MachineConfig::ScaledWorkstation(1);
  EXPECT_LT(scaled.llc.size_bytes, def.llc.size_bytes);
  EXPECT_LT(scaled.cores[0].l1d.size_bytes, def.cores[0].l1d.size_bytes);
  EXPECT_LT(scaled.cores[0].tlb.l2_entries, def.cores[0].tlb.l2_entries);
}

TEST(Machine, RandomReplacementCachesStillCoherent) {
  MachineConfig cfg = MachineConfig::Default(2);
  for (auto& c : cfg.cores) {
    c.l1d.replacement = ReplacementKind::kRandom;
    c.l2.replacement = ReplacementKind::kFifo;
  }
  Machine machine(cfg);
  std::uint64_t shadow[64] = {};
  std::uint64_t x = 7;
  for (int i = 0; i < 4000; ++i) {
    x = x * 6364136223846793005ull + 1;
    const int core = static_cast<int>(x % 2);
    const std::size_t slot = (x >> 8) % 64;
    Env env(machine, core);
    if ((x >> 16) & 1) {
      shadow[slot] = x;
      env.Store<std::uint64_t>(0x5000 + slot * 64, x);
    } else {
      ASSERT_EQ(env.Load<std::uint64_t>(0x5000 + slot * 64), shadow[slot]);
    }
  }
}

TEST(Machine, SyscallChargesConfiguredCycles) {
  MachineConfig cfg = MachineConfig::Default(1);
  cfg.mmap_syscall_cycles = 9999;
  Machine machine(cfg);
  Env env(machine, 0);
  env.ChargeSyscall();
  EXPECT_GE(machine.core(0).now(), 9999u);
}

}  // namespace
}  // namespace ngx
