// Workload integration tests: every workload x allocator smoke matrix,
// determinism, trace round trips, and report formatting.
#include <algorithm>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "src/alloc/registry.h"
#include "src/core/nextgen_malloc.h"
#include "src/workload/churn.h"
#include "src/workload/false_sharing.h"
#include "src/workload/report.h"
#include "src/workload/runner.h"
#include "src/workload/trace.h"
#include "src/workload/xalanc.h"
#include "src/workload/xmalloc.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "xalanc") {
    XalancConfig c;
    c.documents = 2;
    c.nodes_per_doc = 400;
    return std::make_unique<XalancLike>(c);
  }
  if (name == "xmalloc") {
    XmallocConfig c;
    c.ops_per_thread = 800;
    return std::make_unique<XmallocLike>(c);
  }
  if (name == "churn") {
    ChurnConfig c;
    c.live_blocks = 200;
    c.ops = 1000;
    return std::make_unique<Churn>(c);
  }
  if (name == "larson") {
    LarsonConfig c;
    c.slots_per_thread = 64;
    c.ops = 800;
    return std::make_unique<LarsonLike>(c);
  }
  if (name == "cache-thrash") {
    FalseSharingConfig c;
    c.iterations = 500;
    return std::make_unique<CacheThrash>(c);
  }
  FalseSharingConfig c;
  c.iterations = 500;
  return std::make_unique<CacheScratch>(c);
}

struct MatrixCase {
  std::string workload;
  std::string allocator;
};

class WorkloadMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(WorkloadMatrixTest, RunsCleanAndBalancesAllocs) {
  const MatrixCase& c = GetParam();
  Machine machine(MachineConfig::Default(4));
  std::unique_ptr<Allocator> owned;
  NgxSystem sys;
  Allocator* alloc = nullptr;
  RunOptions opt;
  opt.cores = {0, 1, 2};
  if (c.allocator == "nextgen") {
    sys = MakeNgxSystem(machine, NgxConfig::PaperPrototype(), 3);
    alloc = sys.allocator.get();
    opt.server_cores = {3};
  } else {
    owned = CreateAllocator(c.allocator, machine);
    alloc = owned.get();
  }
  auto workload = MakeWorkload(c.workload);
  const RunResult r = RunWorkload(machine, *alloc, *workload, opt);
  if (sys.fabric) {
    sys.fabric->DrainAll();
  }
  const AllocatorStats s = alloc->stats();
  EXPECT_GT(s.mallocs, 0u);
  EXPECT_EQ(s.mallocs, s.frees) << "workloads free everything they allocate";
  EXPECT_EQ(s.oom_failures, 0u);
  EXPECT_GT(r.wall_cycles, 0u);
  EXPECT_GT(r.app.instructions, 0u);
}

std::vector<MatrixCase> AllCases() {
  std::vector<MatrixCase> cases;
  for (const char* w :
       {"xalanc", "xmalloc", "churn", "larson", "cache-thrash", "cache-scratch"}) {
    for (const char* a : {"ptmalloc2", "jemalloc", "tcmalloc", "mimalloc", "nextgen"}) {
      cases.push_back(MatrixCase{w, a});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, WorkloadMatrixTest, ::testing::ValuesIn(AllCases()),
                         [](const ::testing::TestParamInfo<MatrixCase>& param_info) {
                           std::string n =
                               param_info.param.workload + "_" + param_info.param.allocator;
                           for (char& ch : n) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return n;
                         });

TEST(Determinism, SameSeedSameCounters) {
  auto run = [] {
    Machine machine(MachineConfig::Default(2));
    auto alloc = CreateAllocator("tcmalloc", machine);
    XmallocConfig c;
    c.ops_per_thread = 500;
    XmallocLike workload(c);
    RunOptions opt;
    opt.cores = {0, 1};
    opt.seed = 99;
    return RunWorkload(machine, *alloc, workload, opt);
  };
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_EQ(a.app.cycles, b.app.cycles);
  EXPECT_EQ(a.app.instructions, b.app.instructions);
  EXPECT_EQ(a.app.llc_load_misses, b.app.llc_load_misses);
  EXPECT_EQ(a.wall_cycles, b.wall_cycles);
}

TEST(Determinism, DifferentSeedDifferentStream) {
  auto run = [](std::uint64_t seed) {
    Machine machine(MachineConfig::Default(1));
    auto alloc = CreateAllocator("mimalloc", machine);
    ChurnConfig c;
    c.ops = 500;
    Churn workload(c);
    RunOptions opt;
    opt.cores = {0};
    opt.seed = seed;
    return RunWorkload(machine, *alloc, workload, opt).app.cycles;
  };
  EXPECT_NE(run(1), run(2));
}

TEST(Trace, RecordAndReplayRoundTrip) {
  Machine machine(MachineConfig::Default(2));
  auto inner = CreateAllocator("tcmalloc", machine);
  TraceRecordingAllocator recorder(*inner);
  ChurnConfig c;
  c.live_blocks = 50;
  c.ops = 300;
  Churn workload(c);
  RunOptions opt;
  opt.cores = {0};
  RunWorkload(machine, recorder, workload, opt);
  Trace trace = recorder.TakeTrace();
  EXPECT_GT(trace.ops.size(), 600u);

  // Serialize and parse back.
  std::stringstream ss;
  trace.Save(ss);
  const Trace loaded = Trace::Load(ss);
  ASSERT_EQ(loaded.ops.size(), trace.ops.size());
  EXPECT_EQ(loaded.ops[0].kind, trace.ops[0].kind);
  EXPECT_EQ(loaded.ops[0].size, trace.ops[0].size);

  // Replay against a different allocator.
  Machine machine2(MachineConfig::Default(2));
  auto alloc2 = CreateAllocator("mimalloc", machine2);
  TraceReplay replay(loaded);
  RunOptions opt2;
  opt2.cores = {0};
  RunWorkload(machine2, *alloc2, replay, opt2);
  const AllocatorStats s = alloc2->stats();
  EXPECT_EQ(s.mallocs, s.frees);
  EXPECT_GT(s.mallocs, 300u);
}

// ---- The churn workload's step contract ----

ChurnConfig FixedSizePhase(std::uint64_t size, std::uint32_t live_blocks, std::uint32_t ops) {
  ChurnConfig c;
  c.live_blocks = live_blocks;
  c.ops = ops;
  c.min_size = size;
  c.max_size = size;
  return c;
}

// Runs a one-thread churn Step by Step and splits the recorded allocator
// calls by the Step that made them.
std::vector<std::vector<TraceOp>> CallsPerStep(Churn& churn) {
  Machine machine(MachineConfig::Default(1));
  auto inner = CreateAllocator("tcmalloc", machine);
  TraceRecordingAllocator recorder(*inner);
  auto threads = churn.MakeThreads(machine, recorder, {0}, /*seed=*/1);
  Env env(machine, 0);
  std::vector<std::size_t> ends;
  bool running = true;
  while (running) {
    running = threads[0]->Step(env);
    const AllocatorStats s = recorder.stats();
    ends.push_back(s.mallocs + s.frees);
  }
  const Trace trace = recorder.TakeTrace();
  std::vector<std::vector<TraceOp>> steps;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    steps.emplace_back(trace.ops.begin() + static_cast<std::ptrdiff_t>(begin),
                       trace.ops.begin() + static_cast<std::ptrdiff_t>(end));
    begin = end;
  }
  return steps;
}

// Replays the fill and churn Steps of one phase: a lone malloc appends to
// the working set, a free then a malloc puts the replacement in the dying
// block's slot. Returns the block ids held at the end, in working-set order.
std::vector<std::uint64_t> HeldAfter(const std::vector<std::vector<TraceOp>>& steps,
                                     std::size_t count) {
  std::vector<std::uint64_t> held;
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<TraceOp>& s = steps[i];
    if (s.size() == 1) {
      EXPECT_EQ(s[0].kind, TraceOp::Kind::kMalloc);
      held.push_back(s[0].index);
      continue;
    }
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].kind, TraceOp::Kind::kFree);
    EXPECT_EQ(s[1].kind, TraceOp::Kind::kMalloc);
    const auto slot = std::find(held.begin(), held.end(), s[0].index);
    EXPECT_NE(slot, held.end());
    if (slot != held.end()) {
      *slot = s[1].index;
    }
  }
  return held;
}

TEST(ChurnWorkload, AllAtOnceFreesEveryBlockInOneStepInFillOrder) {
  Churn churn({{FixedSizePhase(64, 6, 10)}}, ChurnDrain::kAllAtOnce);
  const auto steps = CallsPerStep(churn);
  ASSERT_EQ(steps.size(), 6u + 10u + 1u);  // fill, churn, one drain Step
  const std::vector<std::uint64_t> held = HeldAfter(steps, 16);
  const std::vector<TraceOp>& drain = steps.back();
  ASSERT_EQ(drain.size(), held.size());
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(drain[i].kind, TraceOp::Kind::kFree);
    EXPECT_EQ(drain[i].index, held[i]) << "free " << i;
  }
}

TEST(ChurnWorkload, OnePerStepFreesNewestFirstOneBlockPerStep) {
  Churn churn({{FixedSizePhase(64, 6, 10)}}, ChurnDrain::kOnePerStep);
  const auto steps = CallsPerStep(churn);
  const std::vector<std::uint64_t> held = HeldAfter(steps, 16);
  std::vector<std::uint64_t> freed;
  for (std::size_t i = 16; i < steps.size(); ++i) {
    ASSERT_LE(steps[i].size(), 1u) << "step " << i;
    if (!steps[i].empty()) {
      EXPECT_EQ(steps[i][0].kind, TraceOp::Kind::kFree);
      freed.push_back(steps[i][0].index);
    }
  }
  EXPECT_EQ(freed, std::vector<std::uint64_t>(held.rbegin(), held.rend()));
}

// One token per allocator call: "m<size>" or "f".
std::string CallShape(const Trace& trace) {
  std::string out;
  for (const TraceOp& op : trace.ops) {
    out += op.kind == TraceOp::Kind::kMalloc ? " m" + std::to_string(op.size) : std::string(" f");
  }
  return out;
}

TEST(ChurnWorkload, PhasesRunInOrderEachWithItsOpCountReset) {
  const std::string expected =
      " m64 m64 m64 f m64 f m64 f f f"                     // 3 blocks, 2 ops, drain
      " m512 m512 f m512 f m512 f m512 f m512 f f";  // 2 blocks, 4 ops, drain
  for (const ChurnDrain drain : {ChurnDrain::kAllAtOnce, ChurnDrain::kOnePerStep}) {
    Machine machine(MachineConfig::Default(1));
    auto inner = CreateAllocator("tcmalloc", machine);
    TraceRecordingAllocator recorder(*inner);
    Churn churn({{FixedSizePhase(64, 3, 2), FixedSizePhase(512, 2, 4)}}, drain);
    RunOptions opt;
    opt.cores = {0};
    RunWorkload(machine, recorder, churn, opt);
    EXPECT_EQ(CallShape(recorder.TakeTrace()), expected);
  }
}

// Forwards to `inner` except for its `fail_at`-th malloc, which returns null.
class FailingMalloc : public Allocator {
 public:
  FailingMalloc(Allocator& inner, std::uint64_t fail_at) : inner_(&inner), fail_at_(fail_at) {}
  std::string_view name() const override { return "failing-malloc"; }
  Addr Malloc(Env& env, std::uint64_t size) override {
    return ++attempts_ == fail_at_ ? kNullAddr : inner_->Malloc(env, size);
  }
  void Free(Env& env, Addr addr) override { inner_->Free(env, addr); }
  std::uint64_t UsableSize(Env& env, Addr addr) override { return inner_->UsableSize(env, addr); }
  AllocatorStats stats() const override { return inner_->stats(); }
  std::uint64_t attempts() const { return attempts_; }

 private:
  Allocator* inner_;
  std::uint64_t fail_at_;
  std::uint64_t attempts_ = 0;
};

TEST(ChurnWorkload, FailedMallocEndsTheThreadWithItsBlocksHeld) {
  // Four blocks, then replacements. Failing the 3rd malloc stops the fill at
  // two blocks; failing the 7th (the third replacement) leaves the three
  // blocks its free did not touch.
  for (const auto& [fail_at, held] : {std::pair<std::uint64_t, std::uint64_t>{3, 2}, {7, 3}}) {
    Machine machine(MachineConfig::Default(1));
    auto inner = CreateAllocator("tcmalloc", machine);
    FailingMalloc failing(*inner, fail_at);
    Churn churn({{FixedSizePhase(64, 4, 10)}}, ChurnDrain::kAllAtOnce);
    RunOptions opt;
    opt.cores = {0};
    RunWorkload(machine, failing, churn, opt);
    EXPECT_EQ(failing.attempts(), fail_at) << "no malloc after the failed one";
    const AllocatorStats s = inner->stats();
    EXPECT_EQ(s.mallocs - s.frees, held) << "fail at " << fail_at;
  }
}

TEST(ChurnWorkload, SameSeedSameCallSequence) {
  auto calls = [](std::uint64_t seed) {
    Machine machine(MachineConfig::Default(2));
    auto inner = CreateAllocator("tcmalloc", machine);
    TraceRecordingAllocator recorder(*inner);
    ChurnConfig c;
    c.live_blocks = 20;
    c.ops = 100;
    c.max_size = 4096;
    Churn churn(c);
    RunOptions opt;
    opt.cores = {0, 1};
    opt.seed = seed;
    RunWorkload(machine, recorder, churn, opt);
    std::ostringstream out;
    recorder.TakeTrace().Save(out);
    return out.str();
  };
  EXPECT_EQ(calls(5), calls(5));
  EXPECT_NE(calls(5), calls(6));
}

TEST(Report, TableAlignsColumns) {
  TextTable t({"a", "bbbb"});
  t.AddRow({"xxxx", "y"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("a     bbbb"), std::string::npos);
  EXPECT_NE(s.find("xxxx  y"), std::string::npos);
}

TEST(Report, Formatters) {
  EXPECT_EQ(FormatSci(1.177e12, 3), "1.177E+12");
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatRatio(1.719, 2), "1.72x");
  EXPECT_EQ(FormatInt(279795405), "279,795,405");
  EXPECT_EQ(FormatInt(5), "5");
  EXPECT_EQ(FormatInt(1234), "1,234");
}

TEST(Workloads, XalancRetentionFreesEverything) {
  Machine machine(MachineConfig::Default(1));
  auto alloc = CreateAllocator("jemalloc", machine);
  XalancConfig c;
  c.documents = 5;
  c.nodes_per_doc = 300;
  c.retain_percent = 30;
  c.retain_window = 2;
  XalancLike workload(c);
  RunOptions opt;
  opt.cores = {0};
  RunWorkload(machine, *alloc, workload, opt);
  const AllocatorStats s = alloc->stats();
  EXPECT_EQ(s.mallocs, s.frees) << "retained pools must drain at the end";
  EXPECT_EQ(s.bytes_live, 0u);
}

TEST(Workloads, XmallocAllFreesAreCrossThread) {
  Machine machine(MachineConfig::Default(2));
  auto alloc = CreateAllocator("mimalloc", machine);
  XmallocConfig c;
  c.ops_per_thread = 400;
  XmallocLike workload(c);
  RunOptions opt;
  opt.cores = {0, 1};
  const RunResult r = RunWorkload(machine, *alloc, workload, opt);
  // Cross-core frees on mimalloc use atomic pushes: visible as RMWs beyond
  // what single-threaded runs issue.
  EXPECT_GT(r.app.atomic_rmws, 700u);
}

}  // namespace
}  // namespace ngx
