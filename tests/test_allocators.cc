// Property tests shared by every baseline allocator (and both NextGen
// layouts, which register through the same interface).
#include <gtest/gtest.h>

#include "src/alloc/registry.h"
#include "src/core/nextgen_malloc.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

struct AllocatorCase {
  std::string name;
};

class AllocatorPropertyTest : public ::testing::TestWithParam<AllocatorCase> {
 protected:
  void SetUp() override {
    machine_ = MakeMachine(4);
    if (GetParam().name == "nextgen") {
      NgxConfig cfg;
      sys_ = MakeNgxSystem(*machine_, cfg);
      alloc_ = sys_.allocator.get();
    } else if (GetParam().name == "nextgen-inline") {
      NgxConfig cfg;
      cfg.offload = false;
      cfg.remove_atomics = false;  // multi-thread inline requires the lock
      sys_ = MakeNgxSystem(*machine_, cfg);
      alloc_ = sys_.allocator.get();
    } else {
      owned_ = CreateAllocator(GetParam().name, *machine_);
      alloc_ = owned_.get();
    }
  }

  // NextGen's dedicated core is 3; use cores 0-2 for the app.
  int app_core(int i = 0) const { return i; }

  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Allocator> owned_;
  NgxSystem sys_;
  Allocator* alloc_ = nullptr;
};

TEST_P(AllocatorPropertyTest, BasicAllocFree) {
  Env env(*machine_, app_core());
  const Addr a = alloc_->Malloc(env, 100);
  ASSERT_NE(a, kNullAddr);
  EXPECT_EQ(a % 16, 0u);
  EXPECT_GE(alloc_->UsableSize(env, a), 100u);
  env.Store<std::uint64_t>(a, 42);
  EXPECT_EQ(env.Load<std::uint64_t>(a), 42u);
  alloc_->Free(env, a);
}

TEST_P(AllocatorPropertyTest, ZeroAndTinySizes) {
  Env env(*machine_, app_core());
  const Addr z = alloc_->Malloc(env, 0);
  ASSERT_NE(z, kNullAddr);
  const Addr t = alloc_->Malloc(env, 1);
  ASSERT_NE(t, kNullAddr);
  EXPECT_NE(z, t);
  alloc_->Free(env, z);
  alloc_->Free(env, t);
}

TEST_P(AllocatorPropertyTest, FreeNullIsNoop) {
  Env env(*machine_, app_core());
  alloc_->Free(env, kNullAddr);
  EXPECT_EQ(alloc_->stats().frees, 0u);
}

TEST_P(AllocatorPropertyTest, LargeAllocations) {
  Env env(*machine_, app_core());
  for (const std::uint64_t size :
       {std::uint64_t{40000}, std::uint64_t{200000}, std::uint64_t{1500000}}) {
    const Addr a = alloc_->Malloc(env, size);
    ASSERT_NE(a, kNullAddr) << size;
    EXPECT_GE(alloc_->UsableSize(env, a), size);
    env.Store<std::uint64_t>(a + size - 8, 7);  // touch the far end
    alloc_->Free(env, a);
  }
}

TEST_P(AllocatorPropertyTest, RandomOpsPreserveInvariants) {
  ShadowHeapExerciser ex(*machine_, *alloc_, 12345);
  ex.Run(app_core(), 3000, 300);
  ex.FreeAll(app_core());
}

TEST_P(AllocatorPropertyTest, RandomOpsLargeSizes) {
  ShadowHeapExerciser ex(*machine_, *alloc_, 999);
  ex.Run(app_core(), 400, 60, 1024, 200000);
  ex.FreeAll(app_core());
}

TEST_P(AllocatorPropertyTest, MemoryIsRecycled) {
  Env env(*machine_, app_core());
  // Steady-state churn must not grow the footprint without bound.
  std::vector<Addr> blocks;
  for (int i = 0; i < 64; ++i) {
    blocks.push_back(alloc_->Malloc(env, 128));
  }
  const std::uint64_t mapped_after_warmup = alloc_->stats().mapped_bytes;
  for (int round = 0; round < 200; ++round) {
    for (Addr& b : blocks) {
      alloc_->Free(env, b);
      b = alloc_->Malloc(env, 128);
      ASSERT_NE(b, kNullAddr);
    }
  }
  alloc_->Flush(env);
  EXPECT_LE(alloc_->stats().mapped_bytes, mapped_after_warmup + (8u << 20))
      << "churn should reuse memory, not map unboundedly";
  for (const Addr b : blocks) {
    alloc_->Free(env, b);
  }
}

TEST_P(AllocatorPropertyTest, CrossThreadFree) {
  Env producer(*machine_, app_core(0));
  Env consumer(*machine_, app_core(1));
  std::vector<Addr> blocks;
  for (int i = 0; i < 500; ++i) {
    const Addr a = alloc_->Malloc(producer, 64 + (i % 5) * 32);
    ASSERT_NE(a, kNullAddr);
    producer.Store<std::uint64_t>(a, i);
    blocks.push_back(a);
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    ASSERT_EQ(consumer.Load<std::uint64_t>(blocks[i]), i);
    alloc_->Free(consumer, blocks[i]);
  }
  alloc_->Flush(consumer);
  alloc_->Flush(producer);
  // Blocks must be reusable afterwards.
  ShadowHeapExerciser ex(*machine_, *alloc_, 77);
  ex.Run(app_core(0), 500, 100);
  ex.FreeAll(app_core(0));
}

TEST_P(AllocatorPropertyTest, ManyThreadsInterleaved) {
  ShadowHeapExerciser ex0(*machine_, *alloc_, 1);
  ShadowHeapExerciser ex1(*machine_, *alloc_, 2);
  ShadowHeapExerciser ex2(*machine_, *alloc_, 3);
  for (int round = 0; round < 10; ++round) {
    ex0.Run(app_core(0), 100, 64);
    ex1.Run(app_core(1), 100, 64);
    ex2.Run(app_core(2), 100, 64);
  }
  ex0.FreeAll(app_core(0));
  ex1.FreeAll(app_core(1));
  ex2.FreeAll(app_core(2));
}

TEST_P(AllocatorPropertyTest, StatsAreConsistent) {
  Env env(*machine_, app_core());
  const Addr a = alloc_->Malloc(env, 100);
  const Addr b = alloc_->Malloc(env, 200);
  AllocatorStats s = alloc_->stats();
  EXPECT_EQ(s.mallocs, 2u);
  EXPECT_EQ(s.frees, 0u);
  EXPECT_GE(s.bytes_live, 300u);
  EXPECT_GT(s.mapped_bytes, 0u);
  alloc_->Free(env, a);
  alloc_->Free(env, b);
  alloc_->Flush(env);
  s = alloc_->stats();
  EXPECT_EQ(s.frees, 2u);
  EXPECT_LT(s.bytes_live, 300u);
}

INSTANTIATE_TEST_SUITE_P(Allocators, AllocatorPropertyTest,
                         ::testing::Values(AllocatorCase{"ptmalloc2"}, AllocatorCase{"jemalloc"},
                                           AllocatorCase{"tcmalloc"}, AllocatorCase{"mimalloc"},
                                           AllocatorCase{"nextgen"},
                                           AllocatorCase{"nextgen-inline"}),
                         [](const ::testing::TestParamInfo<AllocatorCase>& param_info) {
                           std::string n = param_info.param.name;
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

}  // namespace
}  // namespace ngx
