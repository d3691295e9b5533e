// Client<->server mailboxes and async rings in simulated shared memory.
//
// The protocol is the paper's Code 1: two atomic sequence words
// (req_flag/resp_flag) guard a payload. Because mailbox lines live in
// simulated memory and are written by one core and read by another, the
// machine model charges the real cost of offloading -- cache-line transfers
// between the application core and the allocator core -- with no hand-tuned
// "channel cost" constant.
#ifndef NGX_SRC_OFFLOAD_CHANNEL_H_
#define NGX_SRC_OFFLOAD_CHANNEL_H_

#include <cassert>

#include "src/sim/check.h"
#include "src/sim/env.h"

namespace ngx {

// Operation codes carried in mailbox payloads.
enum class OffloadOp : std::uint64_t {
  kMalloc = 1,
  kFree = 2,
  kUsableSize = 3,
  kFlush = 4,
  kMallocBatch = 5,   // arg1 = extra blocks to prefetch into the client stash
  kDonateSpan = 6,    // shard->shard span request: arg = (nspans << 8) | requester
  // Watermark rebalancing (DESIGN.md §8). Same wire formats as kDonateSpan:
  // span bases are 64 KiB aligned, so base|count packs into one word.
  kRequestSpans = 7,  // proactive refill pull: arg = (nspans << 8) | requester
  kOfferSpans = 8,    // surplus push, ownership already moved: arg = base | nspans
  kReturnSpan = 9,    // recycled spans flowing home, ditto: arg = base | nspans
  // Stash pipeline (DESIGN.md §9): non-blocking request to fill the client's
  // inactive stash half, riding the async ring as a tagged entry.
  // arg = (cls << 24) | (want << 8) | half.
  kRefillStash = 10,
};

// One past the largest opcode (sizes per-op telemetry tables).
inline constexpr int kOffloadOpCount = 11;

// Async ring entries are tagged in their top byte. Tag 0 is a plain kFree
// address; any other tag is the OffloadOp the entry carries, with its
// argument in bits 0-53.
inline constexpr std::uint64_t kRingArgMask = (1ull << 54) - 1;
inline constexpr std::uint64_t RingEntryWord(OffloadOp op, std::uint64_t arg) {
  return (static_cast<std::uint64_t>(op) << 56) | arg;
}

// The ring has no head index: each entry carries its own publication in
// bits 54-55 (B-Queue/FastForward style), which the channel adds when it
// stores an entry and strips before the server consumes it. The lap bit
// records the lap of the ring that wrote the slot (index / capacity); it is
// set on even laps, so a never-written slot reads as the lap before the
// first. The run-end mark ends a published run: the producer stages a run
// with plain stores and publishes it with the one store that marks its last
// entry.
inline constexpr std::uint64_t kRingLapBit = 1ull << 54;
inline constexpr std::uint64_t kRingRunEnd = 1ull << 55;

// Layout of one client's channel block (kChannelStride bytes):
//   +0    request line:  req_seq|op (one word, Code 1's single flag), arg
//   +64   response line: resp_seq, result
//   +128  unused (the ring keeps no head index; the lines below keep their
//         offsets, and with them their cache sets)
//   +192  ring tail index (written by server)
//   +256  ring entries (ring_capacity x 8 bytes)
inline constexpr std::uint64_t kChannelStride = 1024;
inline constexpr std::uint64_t kReqOff = 0;
inline constexpr std::uint64_t kRespOff = 64;
inline constexpr std::uint64_t kRingTailOff = 192;
inline constexpr std::uint64_t kRingEntriesOff = 256;
inline constexpr std::uint32_t kMaxRingCapacity = (kChannelStride - kRingEntriesOff) / 8;

// A ring drain with no time bound.
inline constexpr std::uint64_t kNoDeadline = ~0ull;

class Channel {
 public:
  Channel(Addr base, std::uint32_t ring_capacity)
      : base_(base), ring_capacity_(ring_capacity) {
    // Must hold in every build type: a capacity beyond kMaxRingCapacity makes
    // EntryAddr write past this client's kChannelStride-byte block, silently
    // corrupting the next client's mailbox under NDEBUG.
    NGX_CHECK(ring_capacity > 0 && ring_capacity <= kMaxRingCapacity,
              "channel ring capacity must fit inside kChannelStride");
  }

  Addr base() const { return base_; }
  std::uint32_t ring_capacity() const { return ring_capacity_; }

  // ---- client side ----
  // Publishes a request: one payload store plus the release-store of the
  // combined sequence/opcode word (the paper's Code 1 transfers exactly
  // malloc_size in and heap_addr out).
  void ClientSend(Env& env, std::uint64_t seq, OffloadOp op, std::uint64_t arg) {
    env.Store<std::uint64_t>(base_ + kReqOff + 8, arg);
    env.AtomicStore(base_ + kReqOff, seq | (static_cast<std::uint64_t>(op) << 56));
  }

  // Consumes the response for `seq` (the engine guarantees it is ready).
  std::uint64_t ClientReceive(Env& env, std::uint64_t seq) {
    [[maybe_unused]] const std::uint64_t got = env.AtomicLoad(base_ + kRespOff);
    assert(got == seq);
    return env.Load<std::uint64_t>(base_ + kRespOff + 8);
  }

  // The producer keeps its own head in a register (the standard SPSC
  // idiom, DESIGN.md §9): it is the ring's only writer, so no index line is
  // ever loaded or stored on its behalf. Caller checks space against its
  // view of the tail before storing into slot `index`.

  // Stages `value` in slot `index`: one store, invisible to the server
  // until a later RingPublish ends its run, so several stores can share one
  // doorbell (DESIGN.md §7).
  void RingStore(Env& env, std::uint64_t index, std::uint64_t value) {
    env.Store<std::uint64_t>(EntryAddr(index), LapBit(index) | value);
  }

  // Release-store of `value` into slot `index` with the run-end mark: the
  // one store that publishes every entry staged since the previous run end.
  // It goes to the run's own last line, which the producer already holds
  // when it staged there.
  void RingPublish(Env& env, std::uint64_t index, std::uint64_t value) {
    env.AtomicStore(EntryAddr(index), LapBit(index) | kRingRunEnd | value);
  }

  // Consumer index: the producer's free-space check.
  std::uint64_t RingTail(Env& env) {
    return env.Load<std::uint64_t>(base_ + kRingTailOff);
  }

  // ---- server side ----
  struct Request {
    std::uint64_t seq = 0;
    OffloadOp op = OffloadOp::kMalloc;
    std::uint64_t arg = 0;
  };

  Request ServerReadRequest(Env& env) {
    Request r;
    const std::uint64_t word = env.AtomicLoad(base_ + kReqOff);
    r.seq = word & ((1ull << 56) - 1);
    r.op = static_cast<OffloadOp>(word >> 56);
    r.arg = env.Load<std::uint64_t>(base_ + kReqOff + 8);
    return r;
  }

  void ServerRespond(Env& env, std::uint64_t seq, std::uint64_t result) {
    env.Store<std::uint64_t>(base_ + kRespOff + 8, result);
    env.AtomicStore(base_ + kRespOff, seq);
  }

  // Consumes the published entries below `published` (the end of the last
  // published run) in ring order and stores the new tail with one
  // release-store. The server keeps its tail in a register, as the producer
  // keeps its head, so it loads only the entry lines it drains; an empty
  // ring costs one poll of the slot at the tail. A `deadline` stops it once
  // the server clock reaches it before the next entry starts, leaving the
  // rest for a later drain (a malloc-first idle window ends when a sync
  // request is due, DESIGN.md §7); a drain that starts at its deadline
  // touches no line. Returns the count consumed.
  template <typename Fn>
  std::uint32_t ServerDrainRing(Env& env, std::uint64_t published, Fn&& consume,
                                std::uint64_t deadline = kNoDeadline) {
    if (env.now() >= deadline) {
      return 0;
    }
    // The register copy of the server's own tail: the value it last stored.
    std::uint64_t tail = env.machine().memory().Read<std::uint64_t>(base_ + kRingTailOff);
    if (tail == published) {
      env.TouchRead(EntryAddr(tail), 8);  // the poll that finds no run end
      return 0;
    }
    std::uint32_t n = 0;
    while (tail != published && env.now() < deadline) {
      const std::uint64_t word = env.Load<std::uint64_t>(EntryAddr(tail));
      NGX_CHECK((word & kRingLapBit) == LapBit(tail),
                "ring entry's lap bit does not match the lap of its slot");
      NGX_CHECK(tail + 1 != published || (word & kRingRunEnd) != 0,
                "the last published ring entry lacks its run-end mark");
      consume(word & ~(kRingLapBit | kRingRunEnd));
      ++tail;
      ++n;
    }
    env.AtomicStore(base_ + kRingTailOff, tail);
    return n;
  }

 private:
  Addr EntryAddr(std::uint64_t index) const {
    return base_ + kRingEntriesOff + 8 * (index % ring_capacity_);
  }
  std::uint64_t LapBit(std::uint64_t index) const {
    return (index / ring_capacity_) % 2 == 0 ? kRingLapBit : 0;
  }

  Addr base_;
  std::uint32_t ring_capacity_;
};

}  // namespace ngx

#endif  // NGX_SRC_OFFLOAD_CHANNEL_H_
