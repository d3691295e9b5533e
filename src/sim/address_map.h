// Region map for the simulated virtual address space.
//
// The machine consults the map on TLB lookups to learn which page size backs
// an address (2 MiB hugepage-backed spans have far larger TLB reach -- this is
// the mechanism behind the dTLB-miss differences in Table 1). The page
// provider registers one region per simulated mmap.
#ifndef NGX_SRC_SIM_ADDRESS_MAP_H_
#define NGX_SRC_SIM_ADDRESS_MAP_H_

#include <map>
#include <string>

#include "src/sim/types.h"

namespace ngx {

struct Region {
  Addr base = 0;
  std::uint64_t size = 0;
  PageKind kind = PageKind::kSmall4K;
  std::string name;  // diagnostic tag ("pt-heap", "tc-span", "channel", ...)

  Addr end() const { return base + size; }
  bool Contains(Addr a) const { return a >= base && a < end(); }
};

class AddressMap {
 public:
  // Registers a region. Regions must not overlap; enforced with an assert.
  void Add(const Region& region);

  // Removes the region starting exactly at `base`. Returns true if removed.
  bool Remove(Addr base);

  // Region containing `a`, or nullptr.
  const Region* Find(Addr a) const;

  // Page size backing `a`; unmapped addresses default to 4 KiB pages.
  std::uint64_t PageBytesFor(Addr a) const;

  std::size_t region_count() const { return regions_.size(); }

  // Total bytes currently mapped (virtual footprint).
  std::uint64_t TotalMappedBytes() const;

 private:
  std::map<Addr, Region> regions_;  // keyed by base address
};

}  // namespace ngx

#endif  // NGX_SRC_SIM_ADDRESS_MAP_H_
