// Set-associative arrays with LRU replacement, and one write-back,
// write-allocate cache level built on them.
//
// SetAssoc is the tag store behind every cache level and every TLB array. A
// cache tracks tags, dirtiness and recency only; data lives in SimMemory.
// Each cache line also carries a coherence directory entry, which only the
// inclusive LLC uses: every privately cached line is in the LLC, so its LLC
// way is the one place its sharers and owner are kept.
#ifndef NGX_SRC_SIM_CACHE_H_
#define NGX_SRC_SIM_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/types.h"

namespace ngx {

// `n` zeroed Ts from calloc, which leaves fresh pages untouched until the
// simulation first uses them. A machine's arrays are most of the cost of
// building it; as value-initialized vectors they made perfbench's setup_s
// 16-57% slower than the arrays they replaced.
template <typename T>
class ZeroedArray {
  static_assert(std::is_trivial_v<T>);

 public:
  explicit ZeroedArray(std::size_t n) : p_(static_cast<T*>(std::calloc(n, sizeof(T)))), n_(n) {
    NGX_CHECK(p_ != nullptr, "out of memory for a set-associative array");
  }
  T& operator[](std::size_t i) { return p_.get()[i]; }
  const T& operator[](std::size_t i) const { return p_.get()[i]; }
  T* data() { return p_.get(); }
  std::size_t size() const { return n_; }

 private:
  struct Free {
    void operator()(T* p) const { std::free(p); }
  };
  std::unique_ptr<T, Free> p_;
  std::size_t n_;
};

// `entries` keys in sets of `ways`; a key's set is its low bits. The victim
// of an insert is the set's first invalid way, else its first way with the
// oldest stamp. Stamps come from one tick that advances on every Fill and
// every Touch; Find never changes recency.
class SetAssoc {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  // Dies unless `entries` is a positive multiple of `ways` and the set count
  // is a power of two.
  SetAssoc(std::uint64_t entries, std::uint32_t ways);

  // Slot holding `key`, or kNone.
  std::size_t Find(std::uint64_t key) const {
    const std::size_t base = static_cast<std::size_t>(key & set_mask_) * ways_;
    for (std::size_t s = base; s < base + ways_; ++s) {
      if (slots_[s].key == key + 1) {
        return s;
      }
    }
    return kNone;
  }
  // Makes `slot` its set's most recently used.
  void Touch(std::size_t slot) { slots_[slot].stamp = ++tick_; }
  // Find, then Touch on a hit.
  std::size_t Hit(std::uint64_t key) {
    const std::size_t s = Find(key);
    if (s != kNone) {
      Touch(s);
    }
    return s;
  }
  // Slot an insert of `key` replaces.
  std::size_t Victim(std::uint64_t key) const;
  // Puts `key` in `slot` as its set's most recently used.
  void Fill(std::size_t slot, std::uint64_t key) {
    slots_[slot].key = key + 1;
    Touch(slot);
  }
  void Erase(std::size_t slot) { slots_[slot].key = 0; }

  bool valid(std::size_t slot) const { return slots_[slot].key != 0; }
  std::uint64_t key(std::size_t slot) const { return slots_[slot].key - 1; }
  std::size_t size() const { return slots_.size(); }

 private:
  std::uint32_t ways_;
  std::uint64_t set_mask_;
  std::uint64_t tick_ = 0;
  // Key and stamp share one slot, so a 2-MiB LLC allocates 512 KiB of slots
  // plus 256 KiB of line states, the sizes its old line and stamp arrays
  // had. As three 256-KiB arrays, back-to-back Machine constructions ran
  // about 5x slower: glibc's dynamic thresholds then trimmed the freed
  // arrays from the heap, and every construction faulted them back in.
  struct Slot {
    std::uint64_t key;    // key + 1; 0 = invalid
    std::uint64_t stamp;  // tick of the slot's last Fill or Touch
  };
  ZeroedArray<Slot> slots_;
};

struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t ways = 8;
  std::uint32_t hit_latency = 4;  // cycles charged when this level hits
};

class Cache {
 public:
  // All zero: a clean line no core holds.
  struct LineState {
    bool dirty;             // newer than the level below
    // LLC only: the coherence directory entry.
    bool modified;          // its one sharer holds it modified (the owner)
    std::uint32_t sharers;  // cores whose private caches hold the line
  };

  explicit Cache(const CacheConfig& config);

  // State of `line` if present, else nullptr. Access makes a hit the most
  // recently used line of its set; Find and Contains are probes that leave
  // recency alone, as do Invalidate, CleanLine and MarkDirty.
  LineState* Access(Addr line) { return At(tags_.Hit(line / kCacheLineBytes)); }
  LineState* Find(Addr line) { return At(tags_.Find(line / kCacheLineBytes)); }
  const LineState* Find(Addr line) const {
    return const_cast<Cache*>(this)->Find(line);
  }
  bool Contains(Addr line) const { return Find(line) != nullptr; }
  // Makes the line whose state `s` points to the most recently used of its
  // set (an Access after a Find).
  void Touch(const LineState* s) { tags_.Touch(static_cast<std::size_t>(s - states_.data())); }

  struct Eviction {
    bool valid = false;         // an eviction happened
    Addr line = 0;              // line-aligned address evicted
    bool dirty = false;         // needed write-back
    std::uint32_t sharers = 0;  // its directory sharers (LLC)
  };

  // Inserts absent `line` with state `init`, evicting if the set is full.
  // The caller handles the eviction (write-back, back-invalidation of inner
  // levels).
  Eviction Insert(Addr line, LineState init);

  // Removes `line` if present. Returns true if it was present; *was_dirty
  // reports its dirty bit.
  bool Invalidate(Addr line, bool* was_dirty);

  // Clears the dirty bit (after a write-back triggered by a remote read).
  void CleanLine(Addr line);

  // Sets the dirty bit (inner-level write-back into this level).
  void MarkDirty(Addr line);

  const CacheConfig& config() const { return config_; }

  // Enumerates all valid lines (test support).
  std::vector<Addr> ValidLines() const;

 private:
  LineState* At(std::size_t slot) { return slot == SetAssoc::kNone ? nullptr : &states_[slot]; }

  CacheConfig config_;
  SetAssoc tags_;                  // keyed by line number
  ZeroedArray<LineState> states_;  // per slot of tags_
};

}  // namespace ngx

#endif  // NGX_SRC_SIM_CACHE_H_
