#include "src/sim/cache.h"

#include <cassert>

namespace ngx {

SetAssoc::SetAssoc(std::uint64_t entries, std::uint32_t ways)
    : ways_(ways), slots_(entries) {
  NGX_CHECK(ways > 0 && entries > 0 && entries % ways == 0,
            "set-associative array: entries must be a positive multiple of ways");
  NGX_CHECK(IsPow2(entries / ways), "set-associative array: set count must be a power of two");
  set_mask_ = entries / ways - 1;
}

std::size_t SetAssoc::Victim(std::uint64_t key) const {
  const std::size_t base = static_cast<std::size_t>(key & set_mask_) * ways_;
  std::size_t victim = base;
  for (std::size_t s = base; s < base + ways_; ++s) {
    if (slots_[s].key == 0) {
      return s;
    }
    if (slots_[s].stamp < slots_[victim].stamp) {
      victim = s;
    }
  }
  return victim;
}

Cache::Cache(const CacheConfig& config)
    : config_(config),
      tags_(config.size_bytes / kCacheLineBytes, config.ways),
      states_(tags_.size()) {}

Cache::Eviction Cache::Insert(Addr line, LineState init) {
  const std::uint64_t key = line / kCacheLineBytes;
  assert(tags_.Find(key) == SetAssoc::kNone && "inserting a line that is already present");
  const std::size_t slot = tags_.Victim(key);
  Eviction ev;
  if (tags_.valid(slot)) {
    ev = Eviction{true, tags_.key(slot) * kCacheLineBytes, states_[slot].dirty,
                  states_[slot].sharers};
  }
  tags_.Fill(slot, key);
  states_[slot] = init;
  return ev;
}

bool Cache::Invalidate(Addr line, bool* was_dirty) {
  const std::size_t slot = tags_.Find(line / kCacheLineBytes);
  if (slot == SetAssoc::kNone) {
    return false;
  }
  if (was_dirty != nullptr) {
    *was_dirty = states_[slot].dirty;
  }
  tags_.Erase(slot);
  return true;
}

void Cache::CleanLine(Addr line) {
  if (LineState* s = Find(line)) {
    s->dirty = false;
  }
}

void Cache::MarkDirty(Addr line) {
  if (LineState* s = Find(line)) {
    s->dirty = true;
  }
}

std::vector<Addr> Cache::ValidLines() const {
  std::vector<Addr> out;
  for (std::size_t s = 0; s < tags_.size(); ++s) {
    if (tags_.valid(s)) {
      out.push_back(tags_.key(s) * kCacheLineBytes);
    }
  }
  return out;
}

}  // namespace ngx
