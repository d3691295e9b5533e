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

// The allocator calls of a one-thread churn run, in order.
std::vector<TraceOp> ChurnCalls(Churn& churn) {
  Machine machine(MachineConfig::Default(1));
  auto inner = CreateAllocator("tcmalloc", machine);
  TraceRecordingAllocator recorder(*inner);
  RunOptions opt;
  opt.cores = {0};
  RunWorkload(machine, recorder, churn, opt);
  return recorder.TakeTrace().ops;
}

// Replays a phase's fill (`live_blocks` mallocs, each appended to the
// working set) and churn (`churn_ops` free-malloc pairs, the replacement
// taking the dying block's place). Returns the block ids held at the end,
// in working-set order.
std::vector<std::uint64_t> HeldAfter(const std::vector<TraceOp>& calls, std::size_t live_blocks,
                                     std::size_t churn_ops) {
  std::vector<std::uint64_t> held;
  for (std::size_t i = 0; i < live_blocks; ++i) {
    EXPECT_EQ(calls[i].kind, TraceOp::Kind::kMalloc);
    held.push_back(calls[i].index);
  }
  for (std::size_t op = 0; op < churn_ops; ++op) {
    const TraceOp& dying = calls[live_blocks + 2 * op];
    const TraceOp& replacement = calls[live_blocks + 2 * op + 1];
    EXPECT_EQ(dying.kind, TraceOp::Kind::kFree);
    EXPECT_EQ(replacement.kind, TraceOp::Kind::kMalloc);
    const auto slot = std::find(held.begin(), held.end(), dying.index);
    EXPECT_NE(slot, held.end());
    if (slot != held.end()) {
      *slot = replacement.index;
    }
  }
  return held;
}

// The block ids of the frees from call `first` on.
std::vector<std::uint64_t> FreedFrom(const std::vector<TraceOp>& calls, std::size_t first) {
  std::vector<std::uint64_t> freed;
  for (std::size_t i = first; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].kind, TraceOp::Kind::kFree) << "call " << i;
    freed.push_back(calls[i].index);
  }
  return freed;
}

TEST(ChurnWorkload, FillOrderDrainFreesTheWorkingSetInFillOrder) {
  Churn churn({{FixedSizePhase(64, 6, 10)}}, ChurnDrain::kFillOrder);
  const std::vector<TraceOp> calls = ChurnCalls(churn);
  ASSERT_EQ(calls.size(), 6u + 2u * 10u + 6u);  // fill, churn, drain
  EXPECT_EQ(FreedFrom(calls, 26), HeldAfter(calls, 6, 10));
}

TEST(ChurnWorkload, NewestFirstDrainFreesTheWorkingSetNewestFirst) {
  Churn churn({{FixedSizePhase(64, 6, 10)}}, ChurnDrain::kNewestFirst);
  const std::vector<TraceOp> calls = ChurnCalls(churn);
  ASSERT_EQ(calls.size(), 6u + 2u * 10u + 6u);
  const std::vector<std::uint64_t> held = HeldAfter(calls, 6, 10);
  EXPECT_EQ(FreedFrom(calls, 26), std::vector<std::uint64_t>(held.rbegin(), held.rend()));
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
  for (const ChurnDrain drain : {ChurnDrain::kFillOrder, ChurnDrain::kNewestFirst}) {
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
    Churn churn({{FixedSizePhase(64, 4, 10)}}, ChurnDrain::kFillOrder);
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

TEST(LarsonWorkload, FailedMallocStillLeavesTheTableEmpty) {
  // Thread 0 or 1 stops at the 50th malloc; the other, last out, still
  // frees every block left in the shared slots.
  Machine machine(MachineConfig::Default(2));
  auto inner = CreateAllocator("tcmalloc", machine);
  FailingMalloc failing(*inner, 50);
  LarsonConfig c;
  c.slots_per_thread = 64;
  c.ops = 200;
  LarsonLike larson(c);
  RunOptions opt;
  opt.cores = {0, 1};
  RunWorkload(machine, failing, larson, opt);
  ASSERT_GT(failing.attempts(), 50u);
  const AllocatorStats s = inner->stats();
  EXPECT_EQ(s.mallocs, s.frees);
}

// ---- Trace validation ----

Trace ParseTrace(const std::string& text) {
  std::istringstream in(text);
  return Trace::Load(in);
}

TEST(TraceDeath, LoadRejectsAForeignMagic) {
  EXPECT_DEATH_IF_SUPPORTED((void)ParseTrace("garbage 9 1 1\nx 0 0 64\n"),
                            "not an ngxtrace file");
}

TEST(TraceDeath, LoadRejectsAnotherVersion) {
  EXPECT_DEATH_IF_SUPPORTED((void)ParseTrace("ngxtrace 2 1 0\n"), "unsupported ngxtrace version");
}

TEST(TraceDeath, LoadRejectsATruncatedHeader) {
  EXPECT_DEATH_IF_SUPPORTED((void)ParseTrace("ngxtrace 1\nm 0 0 64\n"),
                            "truncated ngxtrace header");
  EXPECT_DEATH_IF_SUPPORTED((void)ParseTrace("ngxtrace 1 1\nm 0 0 64\n"),
                            "truncated ngxtrace header");
}

TEST(TraceDeath, LoadRejectsAnUnknownOpLetter) {
  EXPECT_DEATH_IF_SUPPORTED((void)ParseTrace("ngxtrace 1 1 1\nx 0 0 64\n"),
                            "trace op is neither m nor f");
}

TEST(TraceDeath, LoadRejectsATruncatedOp) {
  EXPECT_DEATH_IF_SUPPORTED((void)ParseTrace("ngxtrace 1 1 2\nm 0 0 64\nm 0 1\n"),
                            "truncated trace op");
}

TEST(TraceDeath, LoadRejectsAMissingOpLine) {
  EXPECT_DEATH_IF_SUPPORTED((void)ParseTrace("ngxtrace 1 1 2\nm 0 0 64\n"),
                            "trace op count differs from its header");
}

Trace TraceOf(std::initializer_list<TraceOp> ops) {
  Trace t;
  t.ops = ops;
  return t;
}

constexpr TraceOp::Kind kM = TraceOp::Kind::kMalloc;
constexpr TraceOp::Kind kF = TraceOp::Kind::kFree;

TEST(TraceDeath, ReplayRejectsAFreeBeforeItsMalloc) {
  EXPECT_DEATH_IF_SUPPORTED((void)TraceReplay(TraceOf({{kF, 0, 7, 0}, {kM, 0, 7, 64}})),
                            "trace frees a block before its malloc");
  // A block that is never allocated is freed before its malloc too.
  EXPECT_DEATH_IF_SUPPORTED((void)TraceReplay(TraceOf({{kM, 0, 0, 64}, {kF, 1, 1, 0}})),
                            "trace frees a block before its malloc");
}

TEST(TraceDeath, ReplayRejectsADoubleFree) {
  EXPECT_DEATH_IF_SUPPORTED(
      (void)TraceReplay(TraceOf({{kM, 0, 0, 64}, {kF, 0, 0, 0}, {kF, 1, 0, 0}})),
      "trace frees a block twice");
}

TEST(TraceDeath, ReplayRejectsAReusedBlockId) {
  EXPECT_DEATH_IF_SUPPORTED((void)TraceReplay(TraceOf({{kM, 0, 0, 64}, {kM, 1, 0, 64}})),
                            "trace mallocs one block id twice");
}

TEST(Trace, ReplayEndsEveryThreadWhenAMallocFails) {
  // Thread 1 waits to free the block thread 0 fails to allocate.
  Machine machine(MachineConfig::Default(2));
  auto inner = CreateAllocator("tcmalloc", machine);
  FailingMalloc failing(*inner, 2);
  TraceReplay replay(TraceOf({{kM, 0, 0, 64}, {kM, 0, 1, 64}, {kF, 1, 1, 0}, {kF, 1, 0, 0}}));
  RunOptions opt;
  opt.cores = {0, 1};
  RunWorkload(machine, failing, replay, opt);
  EXPECT_EQ(failing.attempts(), 2u);
  const AllocatorStats s = inner->stats();
  EXPECT_EQ(s.mallocs, 1u);
  EXPECT_EQ(s.frees, 0u) << "block 0's free comes after the wait for block 1";
}

// ---- The scheduler contract: a Step makes at most one allocator call,
// first, at the clock the Step started ----

// Forwards to `inner`, counting calls and noting the clock of the last.
class CallClockRecorder : public Allocator {
 public:
  explicit CallClockRecorder(Allocator& inner) : inner_(&inner) {}
  std::string_view name() const override { return "call-clock"; }
  Addr Malloc(Env& env, std::uint64_t size) override {
    Note(env);
    return inner_->Malloc(env, size);
  }
  void Free(Env& env, Addr addr) override {
    Note(env);
    inner_->Free(env, addr);
  }
  std::uint64_t UsableSize(Env& env, Addr addr) override { return inner_->UsableSize(env, addr); }
  void Flush(Env& env) override { inner_->Flush(env); }
  AllocatorStats stats() const override { return inner_->stats(); }

  std::uint64_t calls = 0;
  std::uint64_t last_clock = 0;

 private:
  void Note(Env& env) {
    ++calls;
    last_clock = env.now();
  }
  Allocator* inner_;
};

// Audits every Step of a workload's threads against the contract.
struct StepAudit {
  std::uint64_t steps = 0;
  std::uint64_t max_calls = 0;   // most calls one Step made
  std::uint64_t late_calls = 0;  // one-call Steps whose call came after the start clock
};

class AuditedThread : public SimThread {
 public:
  AuditedThread(std::unique_ptr<SimThread> inner, CallClockRecorder& rec, StepAudit& audit)
      : inner_(std::move(inner)), rec_(&rec), audit_(&audit) {}
  int core_id() const override { return inner_->core_id(); }
  bool Step(Env& env) override {
    const std::uint64_t start = env.now();
    const std::uint64_t calls0 = rec_->calls;
    const bool more = inner_->Step(env);
    const std::uint64_t made = rec_->calls - calls0;
    ++audit_->steps;
    audit_->max_calls = std::max(audit_->max_calls, made);
    if (made == 1 && rec_->last_clock != start) {
      ++audit_->late_calls;
    }
    return more;
  }

 private:
  std::unique_ptr<SimThread> inner_;
  CallClockRecorder* rec_;
  StepAudit* audit_;
};

class AuditedWorkload : public Workload {
 public:
  AuditedWorkload(Workload& inner, CallClockRecorder& rec, StepAudit& audit)
      : inner_(&inner), rec_(&rec), audit_(&audit) {}
  std::string_view name() const override { return inner_->name(); }
  std::vector<std::unique_ptr<SimThread>> MakeThreads(Machine& machine, Allocator& alloc,
                                                      const std::vector<int>& cores,
                                                      std::uint64_t seed) override {
    std::vector<std::unique_ptr<SimThread>> threads;
    for (auto& t : inner_->MakeThreads(machine, alloc, cores, seed)) {
      threads.push_back(std::make_unique<AuditedThread>(std::move(t), *rec_, *audit_));
    }
    return threads;
  }

 private:
  Workload* inner_;
  CallClockRecorder* rec_;
  StepAudit* audit_;
};

// Every block is handed from its allocating thread to the next one to free.
Trace CrossThreadTrace(std::uint32_t threads, std::uint64_t blocks) {
  Trace t;
  t.num_threads = threads;
  for (std::uint64_t i = 0; i < blocks; ++i) {
    const auto owner = static_cast<std::uint32_t>(i % threads);
    t.ops.push_back(TraceOp{kM, owner, i, 32 + 16 * (i % 8)});
    t.ops.push_back(TraceOp{kF, (owner + 1) % threads, i, 0});
  }
  return t;
}

std::unique_ptr<Workload> MakeContractWorkload(const std::string& name) {
  if (name == "churn_newest_first") {
    return std::make_unique<Churn>(
        std::vector<std::vector<ChurnConfig>>{{FixedSizePhase(64, 50, 200)}},
        ChurnDrain::kNewestFirst);
  }
  if (name == "replay") {
    return std::make_unique<TraceReplay>(CrossThreadTrace(4, 400));
  }
  std::string base = name;
  std::replace(base.begin(), base.end(), '_', '-');
  return MakeWorkload(base);
}

class StepContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StepContractTest, EveryStepMakesAtMostOneCallAtItsStartClock) {
  Machine machine(MachineConfig::Default(4));
  auto inner = CreateAllocator("tcmalloc", machine);
  CallClockRecorder rec(*inner);
  StepAudit audit;
  auto workload = MakeContractWorkload(GetParam());
  AuditedWorkload audited(*workload, rec, audit);
  RunOptions opt;
  opt.cores = {0, 1, 2, 3};
  RunWorkload(machine, rec, audited, opt);
  EXPECT_GT(rec.calls, 0u);
  EXPECT_LE(audit.max_calls, 1u) << "a Step made several allocator calls";
  EXPECT_EQ(audit.late_calls, 0u) << "a Step's call came after its start clock";
  const AllocatorStats s = inner->stats();
  EXPECT_EQ(s.mallocs, s.frees);
}

INSTANTIATE_TEST_SUITE_P(Workloads, StepContractTest,
                         ::testing::Values("xalanc", "xmalloc", "churn", "churn_newest_first",
                                           "larson", "cache_thrash", "cache_scratch", "replay"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           return param_info.param;
                         });

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
