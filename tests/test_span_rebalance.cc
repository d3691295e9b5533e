// Watermark span rebalancing + return protocol tests (DESIGN.md §8):
//
//  * a seeded randomized lifecycle stress harness driving grant / unmap /
//    take / donate / return steps against SpanDirectory with a host-side
//    shadow model and an O(1)-amortized invariant auditor (every span has
//    exactly one owner, recycled runs are disjoint, granted spans are never
//    donated, returns only target fully-recycled away spans), swept over
//    8 seeds x {2, 4, 8} shards of 96 spans, and over 8 seeds x 3 shards
//    whose slices straddle the directory's chunk boundaries;
//  * the same invariants audited after a randomized malloc/free stress run
//    through the real fabric with watermarks armed, with unbatched frees and
//    with batches of 8;
//  * NGX_CHECK death tests for double-return, returning a mapped span and a
//    low mark without the periodic timer;
//  * unit tests for the kRequestSpans / kOfferSpans / kReturnSpan wire
//    protocol driven directly through the fabric;
//  * end-to-end watermark behaviour: proactive refill keeps the inline
//    kDonateSpan fallback off the malloc path, the return protocol restores
//    the pre-burst per-shard free-span split, and the timer tick reaches a
//    shard whose clock runs ahead of every client;
//  * the allocator's books leave inline donation retries out;
//  * a regression test pinning TakeRecycled's next-fit cursor to
//    amortized-linear scanning on a fragmented 64Ki-span directory.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/alloc/layout.h"
#include "src/core/nextgen_malloc.h"
#include "src/core/span_directory.h"
#include "src/sim/scheduler.h"
#include "src/workload/rng.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

constexpr std::uint64_t kSpan = 64 * 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;

using SpanState = SpanDirectory::SpanState;

// Audits a directory against first principles (no shadow needed): per-shard
// free/away tallies recomputed from the per-span accessors, recycled runs
// disjoint and consistent with the per-span state, and symmetric
// donated/returned totals. Used after fabric-level stress where the span
// traffic is driven by the real allocator.
void AuditDirectoryConsistency(const SpanDirectory& d) {
  const std::uint64_t n = d.num_spans();
  const int shards = d.num_shards();
  std::vector<std::uint64_t> free_count(static_cast<std::size_t>(shards), 0);
  std::vector<std::uint64_t> away_count(static_cast<std::size_t>(shards), 0);
  std::vector<std::uint64_t> recycled_count(static_cast<std::size_t>(shards), 0);
  for (std::uint64_t s = 0; s < n; ++s) {
    const int owner = d.OwnerOfSpan(s);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, shards) << "span " << s << " has no valid owner";
    const SpanState st = d.StateOfSpan(s);
    if (st != SpanState::kGranted) {
      ++free_count[static_cast<std::size_t>(owner)];
    }
    if (st == SpanState::kRecycled) {
      ++recycled_count[static_cast<std::size_t>(owner)];
    }
    if (d.HomeOfSpan(s) != owner) {
      ++away_count[static_cast<std::size_t>(owner)];
    }
  }
  std::vector<bool> covered(n, false);
  std::uint64_t donated_out_sum = 0;
  std::uint64_t donated_in_sum = 0;
  std::uint64_t returned_out_sum = 0;
  std::uint64_t returned_in_sum = 0;
  for (int shard = 0; shard < shards; ++shard) {
    EXPECT_EQ(d.free_spans(shard), free_count[static_cast<std::size_t>(shard)])
        << "free-span tally diverged for shard " << shard;
    EXPECT_EQ(d.away_spans(shard), away_count[static_cast<std::size_t>(shard)])
        << "away-span tally diverged for shard " << shard;
    std::uint64_t in_runs = 0;
    for (const SpanDirectory::SpanRun& r : d.RecycledRuns(shard)) {
      ASSERT_GT(r.count, 0u);
      ASSERT_LE(r.first + r.count, n);
      for (std::uint64_t s = r.first; s < r.first + r.count; ++s) {
        ASSERT_FALSE(covered[s]) << "span " << s << " appears in two recycled runs";
        covered[s] = true;
        ASSERT_EQ(d.OwnerOfSpan(s), shard) << "recycled run holds a foreign span";
        ASSERT_EQ(d.StateOfSpan(s), SpanState::kRecycled)
            << "recycled run holds a non-recycled span";
      }
      in_runs += r.count;
    }
    EXPECT_EQ(in_runs, recycled_count[static_cast<std::size_t>(shard)])
        << "recycled pool does not cover every recycled span of shard " << shard;
    donated_out_sum += d.donated_out(shard);
    donated_in_sum += d.donated_in(shard);
    returned_out_sum += d.returned_out(shard);
    returned_in_sum += d.returned_in(shard);
  }
  EXPECT_EQ(donated_out_sum, donated_in_sum);
  EXPECT_EQ(returned_out_sum, returned_in_sum);
  EXPECT_EQ(d.total_donated(), donated_out_sum);
  EXPECT_EQ(d.total_returned(), returned_out_sum);
  EXPECT_LE(d.total_returned(), d.total_donated())
      << "only spans that left home via donation can be returned";
}

// ---- Randomized lifecycle stress against the bare directory ----
//
// Drives the directory with random lifecycle steps while mirroring every
// move in a host-side shadow model. The auditor is O(1)-amortized: each
// step checks only the tallies of the shards it touched, and a full
// O(num_spans) sweep runs every kSweepEvery steps plus once at the end.
class DirectoryStress {
 public:
  static constexpr std::uint32_t kSweepEvery = 512;

  DirectoryStress(std::uint64_t seed, int shards, std::uint64_t spans_per_shard)
      : rng_(seed),
        shards_(shards),
        d_(kNgxHeapBase, static_cast<std::uint64_t>(shards) * spans_per_shard * kSpan, kSpan,
           shards) {
    const std::uint64_t n = d_.num_spans();
    owner_.resize(n);
    home_.resize(n);
    state_.assign(n, SpanState::kUngranted);
    for (std::uint64_t s = 0; s < n; ++s) {
      owner_[s] = static_cast<int>(s / spans_per_shard);
      home_[s] = owner_[s];
    }
    free_.assign(static_cast<std::size_t>(shards), spans_per_shard);
    away_.assign(static_cast<std::size_t>(shards), 0);
    donated_out_.assign(static_cast<std::size_t>(shards), 0);
    donated_in_.assign(static_cast<std::size_t>(shards), 0);
    returned_out_.assign(static_cast<std::size_t>(shards), 0);
    returned_in_.assign(static_cast<std::size_t>(shards), 0);
  }

  void Run(std::uint32_t steps) {
    for (std::uint32_t i = 0; i < steps && !::testing::Test::HasFatalFailure(); ++i) {
      Step();
      if ((i + 1) % kSweepEvery == 0) {
        FullSweep();
      }
    }
    FullSweep();
  }

 private:
  void Step() {
    const int s = static_cast<int>(rng_.Below(static_cast<std::uint64_t>(shards_)));
    const std::uint64_t pick = rng_.Below(100);
    if (pick < 30) {
      StepGrant(s);
    } else if (pick < 55) {
      StepUnmap(s);
    } else if (pick < 70) {
      StepTake(s);
    } else if (pick < 85) {
      StepDonate(s);
    } else {
      StepReturn(s);
    }
  }

  // Finds a run of 1..max_len spans owned by `s` whose every span satisfies
  // `pred`, probing from a random start. Returns {first, 0} when none exists.
  template <typename Pred>
  std::pair<std::uint64_t, std::uint64_t> FindRun(int s, std::uint64_t max_len, Pred pred) {
    const std::uint64_t n = owner_.size();
    const std::uint64_t start = rng_.Below(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::uint64_t i = start + k < n ? start + k : start + k - n;
      if (owner_[i] != s || !pred(i)) {
        continue;
      }
      std::uint64_t len = 1;
      while (len < max_len && i + len < n && owner_[i + len] == s && pred(i + len)) {
        ++len;
      }
      return {i, len};
    }
    return {0, 0};
  }

  void StepGrant(int s) {
    const auto [first, len] =
        FindRun(s, 1 + rng_.Below(3), [&](std::uint64_t i) { return state_[i] != SpanState::kGranted; });
    if (len == 0) {
      return;
    }
    d_.NoteMapped(s, d_.AddrOfSpan(first), len * kSpan);
    for (std::uint64_t i = first; i < first + len; ++i) {
      state_[i] = SpanState::kGranted;
    }
    free_[static_cast<std::size_t>(s)] -= len;
    AuditShard(s);
  }

  void StepUnmap(int s) {
    const auto [first, len] =
        FindRun(s, 1 + rng_.Below(3), [&](std::uint64_t i) { return state_[i] == SpanState::kGranted; });
    if (len == 0) {
      return;
    }
    d_.NoteUnmapped(s, d_.AddrOfSpan(first), len * kSpan);
    for (std::uint64_t i = first; i < first + len; ++i) {
      state_[i] = SpanState::kRecycled;
    }
    free_[static_cast<std::size_t>(s)] += len;
    AuditShard(s);
  }

  void StepTake(int s) {
    const std::uint64_t n = 1ull << rng_.Below(3);  // 1, 2 or 4 spans
    const Addr base = d_.TakeRecycled(s, n, kSpan);
    if (base == kNullAddr) {
      return;
    }
    const std::uint64_t first = (base - kNgxHeapBase) / kSpan;
    for (std::uint64_t i = first; i < first + n; ++i) {
      ASSERT_EQ(owner_[i], s) << "TakeRecycled handed out a foreign span";
      ASSERT_EQ(state_[i], SpanState::kRecycled) << "TakeRecycled handed out a live span";
      state_[i] = SpanState::kUngranted;  // back inside the provider window
    }
    AuditShard(s);  // free count must NOT change: the spans stay owned
  }

  void StepDonate(int s) {
    if (shards_ < 2) {
      return;
    }
    int t = static_cast<int>(rng_.Below(static_cast<std::uint64_t>(shards_ - 1)));
    if (t >= s) {
      ++t;
    }
    // Granted spans are never donated: the driver only ever offers free runs,
    // and the death tests below pin the directory's enforcement of the rule.
    const auto [first, len] =
        FindRun(s, 1 + rng_.Below(4), [&](std::uint64_t i) { return state_[i] != SpanState::kGranted; });
    if (len == 0) {
      return;
    }
    d_.TransferRange(d_.AddrOfSpan(first), len, s, t);
    for (std::uint64_t i = first; i < first + len; ++i) {
      state_[i] = SpanState::kUngranted;  // recycled spans are lifted out of the pool
      owner_[i] = t;
      if (home_[i] != s) {
        --away_[static_cast<std::size_t>(s)];
      }
      if (home_[i] != t) {
        ++away_[static_cast<std::size_t>(t)];
      }
    }
    free_[static_cast<std::size_t>(s)] -= len;
    free_[static_cast<std::size_t>(t)] += len;
    donated_out_[static_cast<std::size_t>(s)] += len;
    donated_in_[static_cast<std::size_t>(t)] += len;
    AuditShard(s);
    AuditShard(t);
  }

  void StepReturn(int s) {
    int home = -1;
    std::uint64_t n = 0;
    const Addr base = d_.FindRecycledAwayRun(s, 1, 1 + rng_.Below(4), kSpan, &home, &n);
    if (base == kNullAddr) {
      return;
    }
    const std::uint64_t first = (base - kNgxHeapBase) / kSpan;
    for (std::uint64_t i = first; i < first + n; ++i) {
      ASSERT_EQ(owner_[i], s) << "returnable run not owned by the holder";
      ASSERT_EQ(state_[i], SpanState::kRecycled) << "return targeted a non-recycled span";
      ASSERT_EQ(home_[i], home) << "returnable run mixes home shards";
      ASSERT_NE(home_[i], s) << "returnable run is already home";
    }
    ASSERT_EQ(d_.ReturnRange(base, n, s), home);
    for (std::uint64_t i = first; i < first + n; ++i) {
      state_[i] = SpanState::kUngranted;
      owner_[i] = home;
    }
    away_[static_cast<std::size_t>(s)] -= n;
    free_[static_cast<std::size_t>(s)] -= n;
    free_[static_cast<std::size_t>(home)] += n;
    returned_out_[static_cast<std::size_t>(s)] += n;
    returned_in_[static_cast<std::size_t>(home)] += n;
    AuditShard(s);
    AuditShard(home);
  }

  // O(1) per-step audit: only the touched shard's tallies.
  void AuditShard(int s) {
    const auto i = static_cast<std::size_t>(s);
    ASSERT_EQ(d_.free_spans(s), free_[i]) << "free-span tally diverged, shard " << s;
    ASSERT_EQ(d_.away_spans(s), away_[i]) << "away-span tally diverged, shard " << s;
    ASSERT_EQ(d_.donated_out(s), donated_out_[i]);
    ASSERT_EQ(d_.donated_in(s), donated_in_[i]);
    ASSERT_EQ(d_.returned_out(s), returned_out_[i]);
    ASSERT_EQ(d_.returned_in(s), returned_in_[i]);
  }

  // Full O(num_spans) sweep: every span has exactly the shadow's owner, home
  // and state, and every shard's recycled pool covers exactly its recycled
  // spans with disjoint runs.
  void FullSweep() {
    const std::uint64_t n = d_.num_spans();
    for (std::uint64_t s = 0; s < n; ++s) {
      ASSERT_EQ(d_.OwnerOfSpan(s), owner_[s]) << "owner diverged, span " << s;
      ASSERT_EQ(d_.HomeOfSpan(s), home_[s]) << "home must never change, span " << s;
      ASSERT_EQ(d_.StateOfSpan(s), state_[s]) << "state diverged, span " << s;
    }
    AuditDirectoryConsistency(d_);
    for (int s = 0; s < shards_; ++s) {
      AuditShard(s);
    }
  }

  Rng rng_;
  int shards_;
  SpanDirectory d_;
  // Shadow model.
  std::vector<int> owner_;
  std::vector<int> home_;
  std::vector<SpanState> state_;
  std::vector<std::uint64_t> free_;
  std::vector<std::uint64_t> away_;
  std::vector<std::uint64_t> donated_out_;
  std::vector<std::uint64_t> donated_in_;
  std::vector<std::uint64_t> returned_out_;
  std::vector<std::uint64_t> returned_in_;
};

// (seed, shards, spans per shard).
using StressParam = std::tuple<std::uint64_t, int, std::uint64_t>;

class SpanRebalanceStress : public ::testing::TestWithParam<StressParam> {};

TEST_P(SpanRebalanceStress, RandomLifecycleKeepsEveryInvariant) {
  const auto [seed, shards, spans_per_shard] = GetParam();
  DirectoryStress stress(seed, shards, spans_per_shard);
  stress.Run(12000);
}

const auto kStressSeeds =
    ::testing::Values<std::uint64_t>(1, 2, 3, 42, 99, 12345, 0xdeadbeef, 0xfeedface);

std::string StressName(const ::testing::TestParamInfo<StressParam>& info) {
  return "seed" + std::to_string(std::get<0>(info.param)) + "_shards" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(SeedsByShards, SpanRebalanceStress,
                         ::testing::Combine(kStressSeeds, ::testing::Values(2, 4, 8),
                                            ::testing::Values<std::uint64_t>(96)),
                         StressName);

// Slices of one chunk plus 37 spans: every slice boundary and the window's
// end fall mid-chunk, so chunks hold spans of two homes, and the last chunk
// is only partly inside the window.
INSTANTIATE_TEST_SUITE_P(
    ChunkEdges, SpanRebalanceStress,
    ::testing::Combine(kStressSeeds, ::testing::Values(3),
                       ::testing::Values<std::uint64_t>(SpanDirectory::kChunkSpans + 37)),
    StressName);

// Bytes of `shard`'s spans still waiting in a provider window: owned, free
// and not recycled.
std::uint64_t UngrantedBytes(const SpanDirectory& d, int shard) {
  return (d.free_spans(shard) - d.recycled_spans(shard)) * d.span_bytes();
}

// The directory and the providers agree once every ring is empty: each
// shard's ungranted spans are exactly its provider's unconsumed window.
void ExpectBooksBalance(const NgxSystem& sys) {
  const SpanDirectory& d = *sys.allocator->directory();
  for (int s = 0; s < sys.fabric->num_shards(); ++s) {
    EXPECT_EQ(sys.fabric->QueueDepth(s), 0u) << "an entry was left in shard " << s << "'s rings";
    EXPECT_EQ(UngrantedBytes(d, s), sys.allocator->heap(s).span_provider().FreeBytes())
        << "shard " << s;
  }
}

// ---- Randomized stress through the real fabric ----

NgxConfig RebalanceConfig(int shards) {
  NgxConfig cfg;  // offloaded, async frees, segregated metadata
  cfg.num_shards = shards;
  cfg.hugepage_spans = false;  // 64 KiB grants, watermark traffic reachable
  cfg.heap_window = static_cast<std::uint64_t>(shards) * 4 * kMiB;  // 64 spans/shard
  cfg.span_donation = true;
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 16;
  return cfg;
}

class SpanRebalanceFabricStress
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, std::uint32_t>> {};

// Two clients hammer a watermarked fabric with a size mix whose large tail
// (> the 32 KiB small-class ceiling) keeps spans mapping and unmapping, so
// refills, offers and returns all fire while the shadow heap checks block
// integrity -- with frees unbatched and in batches of 8. At the end, every
// directory invariant must still hold and the allocator must balance its
// books.
TEST_P(SpanRebalanceFabricStress, RandomMallocFreeChurnKeepsTheDirectoryConsistent) {
  const auto [seed, shards, free_batch] = GetParam();
  auto machine = MakeMachine(shards + 2);
  NgxConfig cfg = RebalanceConfig(shards);
  cfg.free_batch = free_batch;
  auto sys = MakeNgxSystem(*machine, cfg);
  ASSERT_TRUE(sys.allocator->control()->rebalancing());
  ShadowHeapExerciser ex(*machine, *sys.allocator, seed);
  for (int round = 0; round < 2; ++round) {
    for (int core = 0; core < 2; ++core) {
      ex.Run(core, 500, 40, 64, 48 * 1024);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  ex.FreeAll(0);
  for (int core = 0; core < 2; ++core) {
    Env env(*machine, core);
    sys.allocator->Flush(env);
  }
  sys.fabric->DrainAll();
  AuditDirectoryConsistency(*sys.allocator->directory());
  ExpectBooksBalance(sys);
  const AllocatorStats stats = sys.allocator->stats();
  EXPECT_EQ(stats.mallocs, stats.frees);
  EXPECT_EQ(stats.bytes_live, 0u);
  EXPECT_EQ(sys.allocator->partition_oom_failures(), 0u);
  EXPECT_EQ(sys.allocator->free_flushes() > 0, free_batch > 1);
}

// Unbatched cases keep their seed/shard names; batched ones add _batch8.
INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, SpanRebalanceFabricStress,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 42, 99, 12345, 0xdeadbeef,
                                                        0xfeedface),
                       ::testing::Values(2, 4, 8), ::testing::Values(1u, 8u)),
    [](const ::testing::TestParamInfo<std::tuple<std::uint64_t, int, std::uint32_t>>&
           param_info) {
      const std::uint32_t batch = std::get<2>(param_info.param);
      return "seed" + std::to_string(std::get<0>(param_info.param)) + "_shards" +
             std::to_string(std::get<1>(param_info.param)) +
             (batch > 1 ? "_batch" + std::to_string(batch) : "");
    });

// ---- Death tests: the return protocol's fatal bookkeeping guards ----

TEST(SpanRebalanceDeath, DoubleReturnDies) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  const Addr away = d.AddrOfSpan(70);  // shard 1's slice
  d.TransferRange(away, 1, 1, 0);
  d.NoteMapped(0, away, kSpan);
  d.NoteUnmapped(0, away, kSpan);
  EXPECT_EQ(d.ReturnRange(away, 1, 0), 1);
  // Shard 0 no longer owns the span; returning it again is the double-return
  // bug the directory exists to catch.
  EXPECT_DEATH_IF_SUPPORTED(d.ReturnRange(away, 1, 0), "double return");
}

TEST(SpanRebalanceDeath, ReturningAMappedSpanDies) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  const Addr away = d.AddrOfSpan(70);
  d.TransferRange(away, 1, 1, 0);
  d.NoteMapped(0, away, kSpan);
  // The span still backs live mappings: flowing it home would double-account
  // the address range between two providers.
  EXPECT_DEATH_IF_SUPPORTED(d.ReturnRange(away, 1, 0), "fully-recycled");
}

TEST(SpanRebalanceDeath, ReturningAHomeSpanDies) {
  SpanDirectory d(kNgxHeapBase, 8 * kMiB, kSpan, 2);
  d.NoteMapped(0, kNgxHeapBase, kSpan);
  d.NoteUnmapped(0, kNgxHeapBase, kSpan);
  EXPECT_DEATH_IF_SUPPORTED(d.ReturnRange(kNgxHeapBase, 1, 0), "already home");
}

// ---- Wire-protocol units: the three new fabric ops driven directly ----

NgxConfig DonationOnlyConfig() {
  NgxConfig cfg;
  cfg.num_shards = 2;
  cfg.hugepage_spans = false;
  cfg.heap_window = 8 * kMiB;  // 64 spans per shard
  cfg.span_donation = true;    // watermarks off: no hook interference
  return cfg;
}

TEST(SpanRebalanceProtocol, RequestSpansCarvesFromTheDonor) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationOnlyConfig());
  Env env(*machine, 0);
  // arg = (want << 8) | requester: shard 0 asks shard 1 for 2 spans.
  const std::uint64_t resp =
      sys.fabric->SyncRequest(env, 1, OffloadOp::kRequestSpans, (2ull << 8) | 0);
  ASSERT_NE(resp, kNullAddr);
  const std::uint64_t got = resp & 0xffff;
  const Addr base = resp & ~0xffffull;
  ASSERT_GE(got, 2u);
  const SpanDirectory& d = *sys.allocator->directory();
  EXPECT_EQ(d.OwnerOfAddr(base), 0) << "carved spans must change owner donor-side";
  EXPECT_EQ(d.HomeOfSpan(d.SpanOfAddr(base)), 1) << "home never moves";
  EXPECT_EQ(d.donated_out(1), got);
  EXPECT_EQ(d.donated_in(0), got);
  EXPECT_EQ(d.away_spans(0), got);
  AuditDirectoryConsistency(d);
}

TEST(SpanRebalanceProtocol, OfferSpansGraftsIntoTheRecipientProvider) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationOnlyConfig());
  SpanDirectory& d = *sys.allocator->directory();
  // Sender side of kOfferSpans: carve 2 spans off shard 1's window and move
  // ownership before the message, exactly like TryOfferSurplus does.
  const Addr base = sys.allocator->heap(1).span_provider().TrimTail(2 * kSpan, kSpan);
  ASSERT_NE(base, kNullAddr);
  d.TransferRange(base, 2, 1, 0);
  const std::uint64_t before = sys.allocator->heap(0).span_provider().FreeBytes();
  Env env(*machine, 0);
  // arg = base | nspans: span bases are 64 KiB-aligned, the low 16 bits are free.
  EXPECT_EQ(sys.fabric->SyncRequest(env, 0, OffloadOp::kOfferSpans, base | 2), 1u);
  EXPECT_EQ(sys.allocator->heap(0).span_provider().FreeBytes(), before + 2 * kSpan)
      << "the recipient must graft the offered range onto its provider";
  AuditDirectoryConsistency(d);
}

TEST(SpanRebalanceProtocol, ReturnSpanGraftsAtTheHomeShard) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationOnlyConfig());
  SpanDirectory& d = *sys.allocator->directory();
  // Manufacture a recycled away run: 2 of shard 1's spans live at shard 0,
  // get mapped there and fully recycled again.
  const Addr base = sys.allocator->heap(1).span_provider().TrimTail(2 * kSpan, kSpan);
  ASSERT_NE(base, kNullAddr);
  d.TransferRange(base, 2, 1, 0);
  d.NoteMapped(0, base, 2 * kSpan);
  d.NoteUnmapped(0, base, 2 * kSpan);
  int home = -1;
  std::uint64_t n = 0;
  ASSERT_EQ(d.FindRecycledAwayRun(0, 1, 16, kSpan, &home, &n), base);
  EXPECT_EQ(home, 1);
  EXPECT_EQ(n, 2u);
  // Sender side first (ownership moves before the message), then the posted
  // wire op grafts the range at home once a drain reaches it.
  ASSERT_EQ(d.ReturnRange(base, n, 0), home);
  const std::uint64_t before = sys.allocator->heap(1).span_provider().FreeBytes();
  Env env(*machine, 0);
  sys.fabric->Post(env, home, OffloadOp::kReturnSpan, base | n);
  EXPECT_EQ(sys.allocator->heap(1).span_provider().FreeBytes(), before) << "grafted on push";
  sys.fabric->DrainAll();
  EXPECT_EQ(sys.allocator->heap(1).span_provider().FreeBytes(), before + n * kSpan);
  EXPECT_EQ(d.away_spans(0), 0u);
  EXPECT_EQ(d.returned_out(0), 2u);
  EXPECT_EQ(d.returned_in(1), 2u);
  EXPECT_EQ(d.total_returned(), 2u);
  AuditDirectoryConsistency(d);
}

// ---- One-way returns: a return needs no reply (DESIGN.md §8) ----

// Two shards on cores 2 and 3, watermarks armed; clients 0 and 1 route to
// shards 0 and 1. The holder keeps two of the other shard's spans, mapped
// and fully recycled when `recycled` (the protocol tests' idiom), which
// lifts it above its high mark: its next tick posts them home. No timer
// fires: the tests drive Envs directly.
struct PendingReturn {
  std::unique_ptr<Machine> machine;
  NgxSystem sys;
  int holder = 0;
  int home = 1;
  Addr base = kNullAddr;  // the run's first span

  // Maps and fully recycles the run at the holder: it becomes returnable.
  void Recycle() {
    SpanDirectory& d = *sys.allocator->directory();
    d.NoteMapped(holder, base, 2 * kSpan);
    d.NoteUnmapped(holder, base, 2 * kSpan);
  }

  PageProvider& home_provider() { return sys.allocator->heap(home).span_provider(); }
  // The holder's server core, the return's sender.
  int sender_core() const { return 2 + holder; }
};

PendingReturn MakePendingReturn(int holder, bool recycled = true) {
  PendingReturn p;
  p.machine = MakeMachine(4);
  NgxConfig cfg = DonationOnlyConfig();
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 16;
  p.sys = MakeNgxSystem(*p.machine, cfg);
  p.holder = holder;
  p.home = 1 - holder;
  p.base = p.home_provider().TrimTail(2 * kSpan, kSpan);
  EXPECT_NE(p.base, kNullAddr);
  p.sys.allocator->directory()->TransferRange(p.base, 2, p.home, holder);
  if (recycled) {
    p.Recycle();
  }
  return p;
}

// The holder's tick posts the return and moves on: the post costs its
// server the entry store, less than the mailbox round trip an answer from
// the home would take.
TEST(SpanReturn, PostCostsTheSenderLessThanARoundTrip) {
  // The holder's drain and tick, without a run to return; then a round trip
  // from its server core to the home, over lines as cold as a return's.
  PendingReturn idle = MakePendingReturn(0, /*recycled=*/false);
  Core& idle_sender = idle.machine->core(idle.sender_core());
  idle.sys.fabric->shard(0).DrainAll();
  const std::uint64_t idle_tick = idle_sender.now();
  ASSERT_EQ(idle.sys.allocator->directory()->total_returned(), 0u);
  Env idle_env(*idle.machine, idle.sender_core());
  idle.sys.fabric->SyncRequest(idle_env, 1, OffloadOp::kFlush, 0);
  const std::uint64_t round_trip = idle_sender.now() - idle_tick;

  PendingReturn p = MakePendingReturn(0);
  p.sys.fabric->shard(0).DrainAll();
  const std::uint64_t tick = p.machine->core(p.sender_core()).now();
  ASSERT_EQ(p.sys.allocator->directory()->returned_out(0), 2u);
  EXPECT_LT(tick - idle_tick, round_trip) << "the return waited for a reply";
  EXPECT_EQ(p.sys.fabric->QueueDepth(1), 1u) << "the return is not in the home's ring";
}

// The home grafts the range in its next idle window -- here a request from
// its own client, sent after the post -- or at DrainAll at the latest; until
// then the range sits in neither provider, and the directory keeps it
// ungranted at home. The recorder books the return as an async op and the
// graft as no carve work.
TEST(SpanReturn, HomeGraftsInItsNextIdleWindowOrAtDrainAll) {
  for (const bool window : {true, false}) {
    SCOPED_TRACE(window ? "idle window" : "DrainAll");
    PendingReturn p = MakePendingReturn(0);
    TelemetryConfig tc;
    tc.enabled = true;
    tc.recorder = true;
    p.machine->EnableTelemetry(tc);
    const FlightRecorder& rec = p.machine->telemetry().recorder();
    const std::uint64_t before = p.home_provider().FreeBytes();
    p.sys.fabric->shard(0).DrainAll();
    ASSERT_EQ(p.sys.fabric->QueueDepth(1), 1u);
    EXPECT_EQ(p.home_provider().FreeBytes(), before) << "grafted before the home drained";
    EXPECT_EQ(UngrantedBytes(*p.sys.allocator->directory(), 1), before + 2 * kSpan);
    const std::uint64_t carve = p.sys.fabric->shard_stats(1).carve_cycles;
    const std::uint64_t carve_bucket = rec.cycles(FlightRecorder::kServerCarve);
    if (window) {
      p.machine->core(1).AdvanceTo(p.machine->core(p.sender_core()).now());
      Env c1(*p.machine, 1);
      p.sys.fabric->SyncRequest(c1, 1, OffloadOp::kFlush, 0);
    } else {
      p.sys.fabric->DrainAll();
    }
    EXPECT_EQ(p.sys.fabric->QueueDepth(1), 0u);
    EXPECT_EQ(p.home_provider().FreeBytes(), before + 2 * kSpan);
    ExpectBooksBalance(p.sys);
    EXPECT_EQ(p.sys.fabric->shard_stats(1).carve_cycles, carve) << "a graft is not carve work";
    EXPECT_EQ(rec.cycles(FlightRecorder::kServerCarve), carve_bucket);
    const TrafficCell* cell = rec.matrix().CellOrNull(p.sender_core(), 1);
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->async_ops, 1u);
    EXPECT_EQ(cell->sync_ops, 0u) << "the return waited for a reply";
  }
}

// A Flush whose windows end before the post leaves the return in the home's
// ring. The allocator's books and the directory balance all the same; the
// home's provider catches up at DrainAll.
TEST(SpanReturn, BooksBalanceAcrossAFlushWithAReturnInARing) {
  // Shard 1 holds shard 0's run, and it becomes returnable only after the
  // clients' traffic, whose windows would tick the holder early.
  PendingReturn p = MakePendingReturn(/*holder=*/1, /*recycled=*/false);
  Env c0(*p.machine, 0);
  Env c1(*p.machine, 1);
  std::vector<std::pair<Env*, Addr>> blocks;
  for (int i = 0; i < 20; ++i) {
    for (Env* env : {&c0, &c1}) {
      const Addr a = p.sys.allocator->Malloc(*env, 256 + 512 * i);
      ASSERT_NE(a, kNullAddr);
      blocks.emplace_back(env, a);
    }
  }
  for (const auto& [env, a] : blocks) {
    p.sys.allocator->Free(*env, a);
  }
  p.Recycle();
  // The holder's server runs far ahead of both clients, as after a burst.
  // Each Flush reaches shard 0 first, from a client clock behind the post.
  Core& sender = p.machine->core(p.sender_core());
  sender.AdvanceTo(sender.now() + 1000000);
  p.sys.fabric->shard(1).DrainAll();
  ASSERT_EQ(p.sys.allocator->directory()->returned_out(1), 2u);
  p.sys.allocator->Flush(c0);
  p.sys.allocator->Flush(c1);
  ASSERT_EQ(p.sys.fabric->QueueDepth(0), 1u) << "the Flush's windows reached the post";
  const SpanDirectory& d = *p.sys.allocator->directory();
  AuditDirectoryConsistency(d);
  const AllocatorStats stats = p.sys.allocator->stats();
  EXPECT_EQ(stats.mallocs, stats.frees);
  EXPECT_EQ(stats.bytes_live, 0u);
  EXPECT_EQ(UngrantedBytes(d, 0), p.home_provider().FreeBytes() + 2 * kSpan)
      << "the range in flight is booked home and grafted nowhere";
  p.sys.fabric->DrainAll();
  ExpectBooksBalance(p.sys);
  AuditDirectoryConsistency(d);
}

// DrainAll drains the shards in order, and the last shard's post-drain tick
// posts a return to shard 0, which this pass already drained: DrainAll
// still leaves no entry behind.
TEST(SpanReturn, DrainAllLeavesNoEntryWhenTheLastShardPostsToShardZero) {
  PendingReturn p = MakePendingReturn(/*holder=*/1);
  const std::uint64_t before = p.home_provider().FreeBytes();
  p.sys.fabric->DrainAll();
  EXPECT_EQ(p.sys.allocator->directory()->returned_in(0), 2u);
  EXPECT_EQ(p.home_provider().FreeBytes(), before + 2 * kSpan);
  ExpectBooksBalance(p.sys);
  const OffloadEngineStats st = p.sys.fabric->TotalStats();
  EXPECT_EQ(st.async_ops, st.async_enqueued);
}

// ---- End-to-end watermark behaviour ----

// Client 0 routes to shard 0 under static_by_client; a run of 48 KiB blocks
// (one span each, above the small-class ceiling) outgrows shard 0's 64-span
// slice. With watermarks armed the background refill must stay ahead of
// demand: the inline kDonateSpan fallback never fires on the malloc path.
TEST(SpanRebalanceWatermark, ProactiveRefillKeepsTheInlineFallbackIdle) {
  auto machine = MakeMachine(3);
  NgxConfig cfg = DonationOnlyConfig();
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 16;
  auto sys = MakeNgxSystem(*machine, cfg);
  ASSERT_TRUE(sys.allocator->control()->rebalancing());
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 100; ++i) {
    const Addr a = sys.allocator->Malloc(env, 48 * 1024);
    ASSERT_NE(a, kNullAddr) << "refill must keep shard 0 serviceable, alloc " << i;
    blocks.push_back(a);
  }
  const SpanDirectory& d = *sys.allocator->directory();
  EXPECT_GT(d.donated_in(0), 0u) << "demand never outgrew the slice";
  EXPECT_GT(sys.allocator->rebalance_moves(), 0u);
  EXPECT_EQ(sys.allocator->inline_donation_fallbacks(), 0u)
      << "the watermark refill fell behind and donation hit the malloc path";
  EXPECT_EQ(sys.allocator->partition_oom_failures(), 0u);
  // Release the burst. Every donated span that was actually consumed (mapped
  // then unmapped) must flow home; only the refill's unconsumed headroom --
  // kUngranted spans sitting inside shard 0's provider window, bounded by
  // the low mark plus one grant unit -- may legitimately stay away.
  for (const Addr a : blocks) {
    sys.allocator->Free(env, a);
  }
  sys.allocator->Flush(env);
  int home = -1;
  std::uint64_t n = 0;
  for (int i = 0;
       i < 50 && d.FindRecycledAwayRun(0, 1, 16, kSpan, &home, &n) != kNullAddr; ++i) {
    sys.fabric->DrainAll();
  }
  EXPECT_EQ(d.FindRecycledAwayRun(0, 1, 16, kSpan, &home, &n), kNullAddr)
      << "returns never drained the recycled away set";
  const std::uint64_t residue = d.away_spans(0);
  EXPECT_LE(residue, cfg.span_low_mark + 1) << "more than refill headroom stayed away";
  for (std::uint64_t s = 0; s < d.num_spans(); ++s) {
    if (d.OwnerOfSpan(s) == 0 && d.HomeOfSpan(s) != 0) {
      EXPECT_EQ(d.StateOfSpan(s), SpanState::kUngranted)
          << "a consumed (recycled) away span failed to return home";
    }
  }
  EXPECT_EQ(d.free_spans(0), 64u + residue);
  EXPECT_EQ(d.free_spans(1), 64u - residue);
  EXPECT_EQ(d.total_returned(), d.total_donated() - residue)
      << "every recycled donated span must flow home";
  AuditDirectoryConsistency(d);
}

// With span_low_mark = 0 the rebalancer must stay completely unwired: same
// burst, inline donation does all the work, and no background moves happen.
TEST(SpanRebalanceWatermark, ZeroLowMarkDisablesTheRebalancer) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationOnlyConfig());
  ASSERT_FALSE(sys.allocator->control()->rebalancing());
  Env env(*machine, 0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(sys.allocator->Malloc(env, 48 * 1024), kNullAddr);
  }
  EXPECT_GT(sys.allocator->inline_donation_fallbacks(), 0u)
      << "without watermarks the inline path is the only donation source";
  EXPECT_EQ(sys.allocator->rebalance_moves(), 0u);
  EXPECT_EQ(sys.allocator->directory()->total_returned(), 0u);
}

// The allocator's books count what its callers saw. Every inline donation
// starts with a heap attempt that fails inside the server, and the donation
// then serves the same request: that attempt is neither a malloc nor an OOM.
TEST(SpanRebalanceWatermark, InlineDonationRetriesStayOutOfTheBooks) {
  auto machine = MakeMachine(3);
  auto sys = MakeNgxSystem(*machine, DonationOnlyConfig());
  Env env(*machine, 0);
  std::vector<Addr> blocks;
  for (int i = 0; i < 100; ++i) {
    const Addr a = sys.allocator->Malloc(env, 48 * 1024);
    ASSERT_NE(a, kNullAddr);
    blocks.push_back(a);
  }
  ASSERT_GT(sys.allocator->inline_donation_fallbacks(), 0u);
  ASSERT_EQ(sys.allocator->partition_oom_failures(), 0u);
  for (const Addr a : blocks) {
    sys.allocator->Free(env, a);
  }
  sys.allocator->Flush(env);
  sys.fabric->DrainAll();
  const AllocatorStats stats = sys.allocator->stats();
  EXPECT_EQ(stats.mallocs, stats.frees);
  EXPECT_EQ(stats.oom_failures, sys.allocator->partition_oom_failures());
  EXPECT_EQ(stats.bytes_live, 0u);
}

// A compute-only thread: advances its core's clock through the scheduler
// without ever touching the allocator (an application phase with no malloc
// traffic, so no drains and no post-drain ticks).
class ComputeOnlyThread : public SimThread {
 public:
  ComputeOnlyThread(int core, int steps) : core_(core), steps_(steps) {}
  bool Step(Env& env) override {
    env.Work(64);
    return --steps_ > 0;
  }
  int core_id() const override { return core_; }

 private:
  int core_;
  int steps_;
};

// The periodic timer is the quiet shards' tick path
// (config.watermark_timer_cycles): post-drain hooks need fabric traffic, and
// a shard server that just served a burst sits AHEAD of every application
// core. The timer bounds how long such a shard's pending background work
// (returns home, refills for a starved peer) can wait to one period.
//
// The setup constructs the pending state with ZERO tick activity left over
// (two spans donated over the wire, then marked consumed and recycled
// host-side -- the protocol tests' idiom), parks both shard servers far ahead
// of the lone application core -- the served-a-burst posture -- and runs a
// pure-compute tail that only advances virtual time. The recycled away spans
// must flow home on the passage of time alone.
TEST(SpanRebalanceWatermark, TimerTickReachesAShardAheadOfEveryClient) {
  constexpr std::uint64_t kPeriod = 50 * 1000;
  auto machine = MakeMachine(3);
  NgxConfig cfg = DonationOnlyConfig();
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 16;
  cfg.watermark_timer_cycles = kPeriod;
  NgxSystem sys = MakeNgxSystem(*machine, cfg);
  ASSERT_TRUE(sys.allocator->control()->rebalancing());
  Env env(*machine, 0);
  // Shard 0 pulls two spans from shard 1, maps and fully recycles them: a
  // recycled away run that the return protocol must send home. Both
  // free-span counts stay far from the marks, so the donor-side drain tick
  // inside the SyncRequest has nothing to act on -- the pending return is
  // created entirely after the last tick opportunity.
  const std::uint64_t resp =
      sys.fabric->SyncRequest(env, 1, OffloadOp::kRequestSpans, (2ull << 8) | 0);
  ASSERT_NE(resp, 0u);
  const Addr base = resp & ~0xffffull;
  const std::uint64_t got = resp & 0xffff;
  SpanDirectory& d = *sys.allocator->directory();
  d.NoteMapped(0, base, got * kSpan);
  d.NoteUnmapped(0, base, got * kSpan);
  ASSERT_GT(d.away_spans(0), 0u);
  int home = -1;
  std::uint64_t n = 0;
  ASSERT_NE(d.FindRecycledAwayRun(0, 1, 16, kSpan, &home, &n), kNullAddr)
      << "returns completed during the setup; nothing left for the tail";
  const std::uint64_t moves_before = sys.allocator->rebalance_moves();

  // The quiescent tail. Each round re-parks the servers ahead (they are
  // busy serving someone else) and advances the application core by less
  // than the lead: no drain runs, and every core the scheduler sees stays
  // behind both servers throughout.
  for (int r = 0; r < 20; ++r) {
    const std::uint64_t front = machine->core(0).now();
    machine->core(1).AdvanceTo(front + 40 * kPeriod);
    machine->core(2).AdvanceTo(front + 40 * kPeriod);
    ComputeOnlyThread t(0, 400);
    Scheduler::Run(*machine, {&t});
    ASSERT_LT(machine->core(0).now(), machine->core(1).now());
    ASSERT_LT(machine->core(0).now(), machine->core(2).now());
  }
  // The catch-up tick fires each round and the returns converge.
  EXPECT_GT(sys.allocator->rebalance_moves(), moves_before);
  EXPECT_EQ(d.FindRecycledAwayRun(0, 1, 16, kSpan, &home, &n), kNullAddr)
      << "timer ticks never finished sending recycled away spans home";
  EXPECT_EQ(d.away_spans(0), 0u);
  EXPECT_EQ(d.free_spans(0), 64u) << "the home split must be restored";
  EXPECT_EQ(d.free_spans(1), 64u);
  AuditDirectoryConsistency(d);
}

// The control plane hooks the machine (watermark and epoch timers) and the
// fabric (post-drain hooks), both of which can outlive the allocator: once
// the allocator is gone no hook may remain, or the next drain or timer tick
// calls into freed memory.
TEST(ControlPlaneLifetime, AllocatorDestroyedBeforeItsMachineAndFabricLeavesNoHooks) {
  constexpr std::uint64_t kPeriod = 20 * 1000;
  auto machine = MakeMachine(3);
  NgxConfig cfg = DonationOnlyConfig();
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 16;
  cfg.watermark_timer_cycles = kPeriod;
  cfg.routing = RoutingKind::kAdaptive;
  cfg.adaptive_routing = true;
  cfg.epoch_cycles = kPeriod;
  NgxSystem sys = MakeNgxSystem(*machine, cfg);
  ASSERT_TRUE(sys.allocator->control()->rebalancing());
  ASSERT_TRUE(sys.allocator->control()->adaptive());
  ASSERT_TRUE(machine->has_timer_hooks());
  Env env(*machine, 0);
  const Addr a = sys.allocator->Malloc(env, 48 * 1024);
  ASSERT_NE(a, kNullAddr);
  sys.allocator->Free(env, a);
  sys.allocator->Flush(env);
  sys.fabric->DrainAll();

  sys.allocator.reset();
  EXPECT_FALSE(machine->has_timer_hooks());
  sys.fabric->DrainAll();  // would run a post-drain hook left behind
  ComputeOnlyThread tail(0, static_cast<int>(2 * kPeriod / 64));
  Scheduler::Run(*machine, {&tail});
  EXPECT_GT(machine->core(0).now(), kPeriod);
}

// Without the timer a quiet shard would have no tick path at all, so a
// rebalancer configured without one is rejected at construction.
TEST(SpanRebalanceDeath, LowMarkWithoutTimerAborts) {
  auto machine = MakeMachine(3);
  NgxConfig cfg = DonationOnlyConfig();
  cfg.span_low_mark = 8;
  cfg.span_high_mark = 16;
  cfg.watermark_timer_cycles = 0;
  EXPECT_DEATH_IF_SUPPORTED((void)MakeNgxSystem(*machine, cfg), "watermark_timer_cycles");
}

// ---- TakeRecycled next-fit cursor regression ----

// A fragmented 64Ki-span directory: 2048 single-span runs (which can never
// satisfy a 2-span take) followed by 256 two-span runs. A scan restarting
// from run 0 re-rejects every single-span run per request (~525k probes for
// 256 takes); the next-fit cursor must keep the whole sequence
// amortized-linear.
TEST(SpanRebalanceCursor, FragmentedTakesStayAmortizedLinear) {
  constexpr std::uint64_t kSpans = 64 * 1024;
  SpanDirectory d(kNgxHeapBase, kSpans * kSpan, kSpan, 1);
  d.NoteMapped(0, kNgxHeapBase, kSpans * kSpan);
  // 2048 isolated single-span holes in the low half...
  for (std::uint64_t i = 0; i < 2048; ++i) {
    d.NoteUnmapped(0, d.AddrOfSpan(2 * i), kSpan);
  }
  // ...then 256 isolated two-span holes above them.
  const std::uint64_t pairs_at = 8192;
  for (std::uint64_t i = 0; i < 256; ++i) {
    d.NoteUnmapped(0, d.AddrOfSpan(pairs_at + 4 * i), 2 * kSpan);
  }
  ASSERT_EQ(d.RecycledRuns(0).size(), 2048u + 256u);
  const std::uint64_t steps_before = d.take_scan_steps();
  Addr prev = kNullAddr;
  for (int i = 0; i < 256; ++i) {
    const Addr base = d.TakeRecycled(0, 2, kSpan);
    ASSERT_NE(base, kNullAddr) << "take " << i << " found no two-span run";
    EXPECT_NE(base, prev) << "the same run was handed out twice";
    prev = base;
  }
  const std::uint64_t scanned = d.take_scan_steps() - steps_before;
  // First take walks past the 2048 singles once; each later take resumes at
  // the cursor and succeeds in O(1). Generous slack, far below the ~525k a
  // restart-from-zero scan costs.
  EXPECT_LT(scanned, 2048u + 10u * 256u + 64u)
      << "next-fit cursor regressed to rescanning the fragmented prefix";
  AuditDirectoryConsistency(d);
}

}  // namespace
}  // namespace ngx
