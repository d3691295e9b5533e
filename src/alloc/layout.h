// Global carve-up of the simulated virtual address space.
//
// Each allocator gets a disjoint terabyte-scale window so diagnostic dumps
// can attribute an address to its owner at a glance.
#ifndef NGX_SRC_ALLOC_LAYOUT_H_
#define NGX_SRC_ALLOC_LAYOUT_H_

#include "src/sim/types.h"

namespace ngx {

inline constexpr Addr kPtHeapBase = 0x0100'0000'0000ull;
inline constexpr Addr kJeHeapBase = 0x0200'0000'0000ull;
inline constexpr Addr kTcHeapBase = 0x0300'0000'0000ull;   // hugepage-backed spans
inline constexpr Addr kTcMetaBase = 0x0380'0000'0000ull;   // segregated metadata
inline constexpr Addr kMiHeapBase = 0x0400'0000'0000ull;
inline constexpr Addr kNgxHeapBase = 0x0500'0000'0000ull;  // NextGen server heap
inline constexpr Addr kNgxMetaBase = 0x0580'0000'0000ull;  // NextGen segregated metadata
inline constexpr Addr kNgxFreeBufBase = 0x0680'0000'0000ull;  // unmapped; frees stage in rings
inline constexpr Addr kChannelBase = 0x0700'0000'0000ull;  // offload mailboxes/rings
inline constexpr Addr kWorkloadBase = 0x0800'0000'0000ull; // workload-private globals

inline constexpr std::uint64_t kHeapWindow = 0x0080'0000'0000ull;  // 512 GiB per window

}  // namespace ngx

#endif  // NGX_SRC_ALLOC_LAYOUT_H_
