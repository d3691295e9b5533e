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
// address (the historical encoding, byte-for-byte unchanged); any other tag
// is the OffloadOp the entry carries, with its argument in the low 56 bits.
inline constexpr std::uint64_t kRingArgMask = (1ull << 56) - 1;
inline constexpr std::uint64_t RingEntryWord(OffloadOp op, std::uint64_t arg) {
  return (static_cast<std::uint64_t>(op) << 56) | arg;
}

// Layout of one client's channel block (kChannelStride bytes):
//   +0    request line:  req_seq|op (one word, Code 1's single flag), arg
//   +64   response line: resp_seq, result
//   +128  ring head index (written by client)
//   +192  ring tail index (written by server)
//   +256  ring entries (ring_capacity x 8 bytes)
inline constexpr std::uint64_t kChannelStride = 1024;
inline constexpr std::uint64_t kReqOff = 0;
inline constexpr std::uint64_t kRespOff = 64;
inline constexpr std::uint64_t kRingHeadOff = 128;
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

  // Number of free async slots from the client's view (reads both indices).
  std::uint64_t RingSpace(Env& env) {
    const std::uint64_t head = env.Load<std::uint64_t>(base_ + kRingHeadOff);
    const std::uint64_t tail = env.Load<std::uint64_t>(base_ + kRingTailOff);
    return ring_capacity_ - (head - tail);
  }

  // Fire-and-forget enqueue. Caller must have checked RingSpace.
  void RingPush(Env& env, std::uint64_t value) {
    const std::uint64_t head = env.Load<std::uint64_t>(base_ + kRingHeadOff);
    env.Store<std::uint64_t>(EntryAddr(head), value);
    env.AtomicStore(base_ + kRingHeadOff, head + 1);
  }

  // Enqueue for a producer that keeps its own head index in a register (the
  // standard SPSC producer idiom, DESIGN.md §9): one store into slot `index`,
  // no index loads at all. The entry stays invisible to the server until
  // RingPublish moves the head past it, so several stores can share one
  // doorbell (DESIGN.md §7). Caller owns the head (it is the ring's only
  // writer) and must have checked space against its cached view of the tail.
  void RingStore(Env& env, std::uint64_t index, std::uint64_t value) {
    env.Store<std::uint64_t>(EntryAddr(index), value);
  }

  // Release-store of the producer's head: publishes every entry below it in
  // one doorbell line transfer.
  void RingPublish(Env& env, std::uint64_t head) {
    env.AtomicStore(base_ + kRingHeadOff, head);
  }

  // Consumer index alone: a cached-index producer re-reads the tail line
  // only when its cached copy says the ring is full.
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

  // Consumes pending entries in ring order and publishes the new tail with
  // one release-store. A `deadline` stops it once the server clock reaches
  // it before the next entry starts, leaving the rest for a later drain (a
  // malloc-first idle window ends when a sync request is due, DESIGN.md §7).
  // Returns the count consumed.
  template <typename Fn>
  std::uint32_t ServerDrainRing(Env& env, Fn&& consume, std::uint64_t deadline = kNoDeadline) {
    const std::uint64_t head = env.Load<std::uint64_t>(base_ + kRingHeadOff);
    std::uint64_t tail = env.Load<std::uint64_t>(base_ + kRingTailOff);
    std::uint32_t n = 0;
    while (tail != head && env.now() < deadline) {
      consume(env.Load<std::uint64_t>(EntryAddr(tail)));
      ++tail;
      ++n;
    }
    if (n > 0) {
      env.AtomicStore(base_ + kRingTailOff, tail);
    }
    return n;
  }

 private:
  Addr EntryAddr(std::uint64_t index) const {
    return base_ + kRingEntriesOff + 8 * (index % ring_capacity_);
  }

  Addr base_;
  std::uint32_t ring_capacity_;
};

}  // namespace ngx

#endif  // NGX_SRC_OFFLOAD_CHANNEL_H_
