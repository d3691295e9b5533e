#include "src/core/span_directory.h"

#include <algorithm>

#include "src/sim/check.h"

namespace ngx {

SpanDirectory::SpanDirectory(Addr heap_base, std::uint64_t window_bytes,
                             std::uint64_t span_bytes, int num_shards)
    : heap_base_(heap_base), span_bytes_(span_bytes), num_shards_(num_shards) {
  NGX_CHECK(span_bytes > 0 && window_bytes % span_bytes == 0,
            "heap window must be a whole number of spans");
  NGX_CHECK(num_shards >= 1 && num_shards <= 32767, "shard count out of range");
  num_spans_ = window_bytes / span_bytes;
  NGX_CHECK(num_spans_ % static_cast<std::uint64_t>(num_shards) == 0,
            "initial slices must be equal span counts");
  per_shard_ = num_spans_ / static_cast<std::uint64_t>(num_shards);
  chunks_.resize((num_spans_ + kChunkSpans - 1) / kChunkSpans);
  recycled_.resize(static_cast<std::size_t>(num_shards));
  take_cursor_.assign(static_cast<std::size_t>(num_shards), 0);
  free_spans_.assign(static_cast<std::size_t>(num_shards), per_shard_);
  away_spans_.assign(static_cast<std::size_t>(num_shards), 0);
  owned_spans_.assign(static_cast<std::size_t>(num_shards), per_shard_);
  donated_out_.assign(static_cast<std::size_t>(num_shards), 0);
  donated_in_.assign(static_cast<std::size_t>(num_shards), 0);
  returned_out_.assign(static_cast<std::size_t>(num_shards), 0);
  returned_in_.assign(static_cast<std::size_t>(num_shards), 0);
}

std::uint64_t SpanDirectory::SpanOfAddr(Addr addr) const {
  NGX_CHECK(addr >= heap_base_ && addr < heap_base_ + num_spans_ * span_bytes_,
            "address outside the heap window");
  return (addr - heap_base_) / span_bytes_;
}

int SpanDirectory::OwnerOfSpan(std::uint64_t span) const {
  NGX_CHECK(span < num_spans_, "span index outside the heap window");
  const Chunk* chunk = chunks_[span / kChunkSpans].get();
  return chunk != nullptr ? chunk->owner[span % kChunkSpans] : Home(span);
}

int SpanDirectory::HomeOfSpan(std::uint64_t span) const {
  NGX_CHECK(span < num_spans_, "span index outside the heap window");
  return Home(span);
}

SpanDirectory::SpanState SpanDirectory::StateOfSpan(std::uint64_t span) const {
  NGX_CHECK(span < num_spans_, "span index outside the heap window");
  const Chunk* chunk = chunks_[span / kChunkSpans].get();
  return chunk != nullptr ? chunk->state[span % kChunkSpans] : State::kUngranted;
}

SpanDirectory::Chunk& SpanDirectory::MutableChunk(std::uint64_t span) {
  std::unique_ptr<Chunk>& chunk = chunks_[span / kChunkSpans];
  if (chunk == nullptr) {
    chunk = std::make_unique<Chunk>();
    const std::uint64_t first = span - span % kChunkSpans;
    const std::uint64_t n = std::min(kChunkSpans, num_spans_ - first);
    for (std::uint64_t i = 0; i < n; ++i) {
      chunk->owner[i] = static_cast<std::int16_t>(Home(first + i));
    }
    chunk->state.fill(State::kUngranted);
    ++materialized_chunks_;
  }
  return *chunk;
}

void SpanDirectory::NoteMapped(int shard, Addr addr, std::uint64_t bytes) {
  const std::uint64_t first = SpanOfAddr(addr);
  const std::uint64_t last = SpanOfAddr(addr + bytes - 1);
  for (std::uint64_t s = first; s <= last; ++s) {
    NGX_CHECK(OwnerOfSpan(s) == shard, "shard mapped a span it does not own");
    State& state = MutableChunk(s).state[s % kChunkSpans];
    if (state != State::kGranted) {
      if (state == State::kRecycled) {
        RemoveRecycledRun(shard, s, 1);
      }
      state = State::kGranted;
      --free_spans_[static_cast<std::size_t>(shard)];
    }
  }
}

void SpanDirectory::NoteUnmapped(int shard, Addr addr, std::uint64_t bytes) {
  // Only fully covered spans become recyclable; a span partially covered by
  // this unmapping may still back another live mapping.
  const Addr lo = AlignUp(addr, span_bytes_);
  const Addr hi = ((addr + bytes) / span_bytes_) * span_bytes_;
  for (Addr a = lo; a + span_bytes_ <= hi; a += span_bytes_) {
    const std::uint64_t s = SpanOfAddr(a);
    NGX_CHECK(OwnerOfSpan(s) == shard, "shard unmapped a span it does not own");
    if (StateOfSpan(s) != State::kGranted) {
      continue;
    }
    MutableChunk(s).state[s % kChunkSpans] = State::kRecycled;
    ++free_spans_[static_cast<std::size_t>(shard)];
    std::vector<SpanRun>& runs = recycled_[static_cast<std::size_t>(shard)];
    if (!runs.empty() && runs.back().first + runs.back().count == s) {
      ++runs.back().count;
    } else {
      runs.push_back(SpanRun{s, 1});
    }
  }
}

void SpanDirectory::RemoveRecycledRunAt(int shard, std::size_t index, std::uint64_t first,
                                        std::uint64_t count) {
  std::vector<SpanRun>& runs = recycled_[static_cast<std::size_t>(shard)];
  SpanRun& r = runs[index];
  NGX_CHECK(first >= r.first && first + count <= r.first + r.count,
            "span run not found in the recycled pool");
  const SpanRun before{r.first, first - r.first};
  const SpanRun after{first + count, r.first + r.count - (first + count)};
  if (before.count == 0 && after.count == 0) {
    runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(index));
  } else if (before.count == 0) {
    r = after;
  } else if (after.count == 0) {
    r = before;
  } else {
    r = before;
    runs.insert(runs.begin() + static_cast<std::ptrdiff_t>(index) + 1, after);
  }
}

void SpanDirectory::RemoveRecycledRun(int shard, std::uint64_t first, std::uint64_t count) {
  std::vector<SpanRun>& runs = recycled_[static_cast<std::size_t>(shard)];
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SpanRun& r = runs[i];
    if (first < r.first || first + count > r.first + r.count) {
      continue;
    }
    RemoveRecycledRunAt(shard, i, first, count);
    return;
  }
  NGX_CHECK(false, "span run not found in the recycled pool");
}

Addr SpanDirectory::TakeRecycled(int shard, std::uint64_t nspans, std::uint64_t alignment) {
  NGX_CHECK(nspans > 0, "cannot take zero spans");
  NGX_CHECK(alignment > 0 && (alignment & (alignment - 1)) == 0,
            "take alignment must be a power of two");
  const std::vector<SpanRun>& runs = recycled_[static_cast<std::size_t>(shard)];
  const std::size_t nruns = runs.size();
  if (nruns == 0) {
    return kNullAddr;
  }
  // Next-fit: resume where the last take left off. Refill streams consume
  // the pool roughly in address order, so restarting from run 0 would
  // rescan every already-rejected (too small / misaligned) run per request
  // and go quadratic on a fragmented directory.
  std::size_t& cursor = take_cursor_[static_cast<std::size_t>(shard)];
  if (cursor >= nruns) {
    cursor = 0;  // runs shrank since the last take; any valid start works
  }
  for (std::size_t k = 0; k < nruns; ++k) {
    const std::size_t i = cursor + k < nruns ? cursor + k : cursor + k - nruns;
    ++take_scan_steps_;
    const SpanRun& r = runs[i];
    const Addr base = AlignUp(AddrOfSpan(r.first), alignment);
    const std::uint64_t first = (base - heap_base_) / span_bytes_;
    if (first + nspans > r.first + r.count) {
      continue;
    }
    cursor = i;
    RemoveRecycledRunAt(shard, i, first, nspans);
    for (std::uint64_t s = first; s < first + nspans; ++s) {
      MutableChunk(s).state[s % kChunkSpans] = State::kUngranted;  // back inside a provider window
    }
    return base;
  }
  return kNullAddr;
}

void SpanDirectory::MoveFreeRun(std::uint64_t first, std::uint64_t count, int from, int to) {
  NGX_CHECK(first + count <= num_spans_, "span range exceeds the heap window");
  for (std::uint64_t s = first; s < first + count; ++s) {
    NGX_CHECK(OwnerOfSpan(s) == from,
              "span donation from a shard that does not own it (double donation?)");
    NGX_CHECK(StateOfSpan(s) != State::kGranted, "cannot donate a span that is still mapped");
    Chunk& chunk = MutableChunk(s);
    if (chunk.state[s % kChunkSpans] == State::kRecycled) {
      // Moving straight out of the recycled pool.
      RemoveRecycledRun(from, s, 1);
      chunk.state[s % kChunkSpans] = State::kUngranted;
    }
    chunk.owner[s % kChunkSpans] = static_cast<std::int16_t>(to);
    if (Home(s) != from) {
      --away_spans_[static_cast<std::size_t>(from)];
    }
    if (Home(s) != to) {
      ++away_spans_[static_cast<std::size_t>(to)];
    }
  }
  free_spans_[static_cast<std::size_t>(from)] -= count;
  free_spans_[static_cast<std::size_t>(to)] += count;
  owned_spans_[static_cast<std::size_t>(from)] -= count;
  owned_spans_[static_cast<std::size_t>(to)] += count;
}

void SpanDirectory::TransferRange(Addr base, std::uint64_t nspans, int from, int to) {
  NGX_CHECK(from != to, "span donation to the owning shard itself");
  MoveFreeRun(SpanOfAddr(base), nspans, from, to);
  donated_out_[static_cast<std::size_t>(from)] += nspans;
  donated_in_[static_cast<std::size_t>(to)] += nspans;
}

int SpanDirectory::ReturnRange(Addr base, std::uint64_t nspans, int from) {
  NGX_CHECK(nspans > 0, "cannot return zero spans");
  const std::uint64_t first = SpanOfAddr(base);
  NGX_CHECK(first + nspans <= num_spans_, "returned range exceeds the heap window");
  const int home = Home(first);
  NGX_CHECK(home != from, "span is already home (double return?)");
  for (std::uint64_t s = first; s < first + nspans; ++s) {
    NGX_CHECK(OwnerOfSpan(s) == from,
              "span return from a shard that does not own it (double return?)");
    NGX_CHECK(Home(s) == home, "a returned run must share one home shard");
    NGX_CHECK(StateOfSpan(s) == State::kRecycled,
              "only fully-recycled spans can be returned home");
  }
  MoveFreeRun(first, nspans, from, home);
  returned_out_[static_cast<std::size_t>(from)] += nspans;
  returned_in_[static_cast<std::size_t>(home)] += nspans;
  return home;
}

Addr SpanDirectory::FindRecycledAwayRun(int shard, std::uint64_t unit_spans,
                                        std::uint64_t max_units, std::uint64_t alignment,
                                        int* home, std::uint64_t* nspans) const {
  NGX_CHECK(unit_spans > 0 && max_units > 0, "return unit sizing must be positive");
  NGX_CHECK(alignment > 0 && (alignment & (alignment - 1)) == 0,
            "return alignment must be a power of two");
  // Stepping by whole units preserves alignment: unit_spans * span_bytes is
  // a multiple of the grant alignment by construction (both round the span
  // size up to the backing page).
  for (const SpanRun& r : recycled_[static_cast<std::size_t>(shard)]) {
    const Addr abase = AlignUp(AddrOfSpan(r.first), alignment);
    std::uint64_t first = (abase - heap_base_) / span_bytes_;
    const std::uint64_t end = r.first + r.count;
    for (; first + unit_spans <= end; first += unit_spans) {
      // A returnable unit must be wholly owned by one foreign home.
      const int h = Home(first);
      if (h == shard) {
        continue;
      }
      bool uniform = true;
      for (std::uint64_t s = first + 1; s < first + unit_spans; ++s) {
        if (Home(s) != h) {
          uniform = false;
          break;
        }
      }
      if (!uniform) {
        continue;
      }
      // Extend over consecutive same-home units inside the run.
      std::uint64_t n = unit_spans;
      while (n / unit_spans < max_units && first + n + unit_spans <= end) {
        bool extend = true;
        for (std::uint64_t s = first + n; s < first + n + unit_spans; ++s) {
          if (Home(s) != h) {
            extend = false;
            break;
          }
        }
        if (!extend) {
          break;
        }
        n += unit_spans;
      }
      *home = h;
      *nspans = n;
      return AddrOfSpan(first);
    }
  }
  return kNullAddr;
}

std::uint64_t SpanDirectory::free_spans(int shard) const {
  return free_spans_[static_cast<std::size_t>(shard)];
}

std::uint64_t SpanDirectory::donated_out(int shard) const {
  return donated_out_[static_cast<std::size_t>(shard)];
}

std::uint64_t SpanDirectory::donated_in(int shard) const {
  return donated_in_[static_cast<std::size_t>(shard)];
}

std::uint64_t SpanDirectory::total_donated() const {
  std::uint64_t total = 0;
  for (const std::uint64_t d : donated_out_) {
    total += d;
  }
  return total;
}

std::uint64_t SpanDirectory::returned_out(int shard) const {
  return returned_out_[static_cast<std::size_t>(shard)];
}

std::uint64_t SpanDirectory::returned_in(int shard) const {
  return returned_in_[static_cast<std::size_t>(shard)];
}

std::uint64_t SpanDirectory::total_returned() const {
  std::uint64_t total = 0;
  for (const std::uint64_t r : returned_out_) {
    total += r;
  }
  return total;
}

std::uint64_t SpanDirectory::away_spans(int shard) const {
  return away_spans_[static_cast<std::size_t>(shard)];
}

std::uint64_t SpanDirectory::owned_spans(int shard) const {
  return owned_spans_[static_cast<std::size_t>(shard)];
}

std::uint64_t SpanDirectory::recycled_spans(int shard) const {
  std::uint64_t total = 0;
  for (const SpanRun& r : recycled_[static_cast<std::size_t>(shard)]) {
    total += r.count;
  }
  return total;
}

}  // namespace ngx
