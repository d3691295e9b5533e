#include "src/sim/cache.h"

#include <gtest/gtest.h>

#include "src/sim/tlb.h"

namespace ngx {
namespace {

constexpr Cache::LineState kDirty{true, false, 0};

TEST(SetAssoc, VictimIsFirstInvalidWayThenFirstOldest) {
  SetAssoc a(4, 4);  // one set
  a.Fill(0, 10);
  a.Fill(2, 12);
  EXPECT_EQ(a.Victim(99), 1u) << "first invalid way";
  a.Fill(1, 11);
  a.Fill(3, 13);
  EXPECT_EQ(a.Victim(99), 0u) << "oldest stamp";
  a.Hit(10);  // 10 is now the newest: 12 is the oldest
  EXPECT_EQ(a.Victim(99), 2u);
  // Probes leave recency alone.
  EXPECT_EQ(a.Find(12), 2u);
  EXPECT_EQ(a.Find(98), SetAssoc::kNone);
  EXPECT_EQ(a.Victim(99), 2u);
  a.Erase(3);
  EXPECT_EQ(a.Victim(99), 3u) << "an invalid way beats any stamp";
}

TEST(SetAssocDeath, SetCountNotAPowerOfTwoDies) {
  CacheConfig c;
  c.size_bytes = 3 * 2 * kCacheLineBytes;  // three sets
  c.ways = 2;
  EXPECT_DEATH_IF_SUPPORTED({ Cache cache(c); }, "set count must be a power of two");
}

TEST(SetAssocDeath, EntriesNotAMultipleOfWaysDies) {
  TlbConfig t;
  t.l1_small_entries = 10;
  t.l1_small_ways = 4;
  EXPECT_DEATH_IF_SUPPORTED({ Tlb tlb(t); }, "entries must be a positive multiple of ways");
}

CacheConfig SmallCache() {
  CacheConfig c;
  c.size_bytes = 1024;  // 16 lines
  c.ways = 2;           // 8 sets
  return c;
}

TEST(Cache, MissThenHit) {
  Cache cache(SmallCache());
  EXPECT_EQ(cache.Access(0), nullptr);
  cache.Insert(0, {});
  EXPECT_NE(cache.Access(0), nullptr);
}

TEST(Cache, LruEviction) {
  Cache cache(SmallCache());
  // Three lines mapping to set 0: line addresses stride = sets * line = 512.
  cache.Insert(0, {});
  cache.Insert(512, {});
  cache.Access(0);  // 0 is now MRU; 512 is LRU
  const Cache::Eviction ev = cache.Insert(1024, {});
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, 512u);
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(1024));
  EXPECT_FALSE(cache.Contains(512));
}

TEST(Cache, DirtyEvictionReported) {
  Cache cache(SmallCache());
  cache.Insert(0, {true, false, 0b101});
  cache.Insert(512, {});
  cache.Access(512);
  const Cache::Eviction ev = cache.Insert(1024, {});
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, 0u);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.sharers, 0b101u) << "the victim's sharers, for back-invalidation";
}

TEST(Cache, InvalidateReturnsDirtyBit) {
  Cache cache(SmallCache());
  cache.Insert(64, {});
  cache.Access(64)->dirty = true;
  bool dirty = false;
  EXPECT_TRUE(cache.Invalidate(64, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_FALSE(cache.Contains(64));
  EXPECT_FALSE(cache.Invalidate(64, &dirty));
}

TEST(Cache, CleanAndMarkDirty) {
  Cache cache(SmallCache());
  cache.Insert(64, kDirty);
  cache.CleanLine(64);
  bool dirty = true;
  cache.Invalidate(64, &dirty);
  EXPECT_FALSE(dirty);

  cache.Insert(128, {});
  cache.MarkDirty(128);
  cache.Invalidate(128, &dirty);
  EXPECT_TRUE(dirty);
}

TEST(Cache, ValidLinesEnumerates) {
  Cache cache(SmallCache());
  cache.Insert(0, {});
  cache.Insert(64, {});
  cache.Insert(128, {});
  const auto lines = cache.ValidLines();
  EXPECT_EQ(lines.size(), 3u);
}

TEST(Cache, HitKeepsCapacityBounded) {
  Cache cache(SmallCache());
  for (Addr a = 0; a < 64 * 64; a += 64) {
    if (cache.Access(a) == nullptr) {
      cache.Insert(a, {});
    }
  }
  EXPECT_LE(cache.ValidLines().size(), 16u);
}

}  // namespace
}  // namespace ngx
