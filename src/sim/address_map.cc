#include "src/sim/address_map.h"

#include <cassert>

namespace ngx {

void AddressMap::Add(const Region& region) {
  assert(region.size > 0);
  // Check against the neighbors for overlap.
  auto next = regions_.lower_bound(region.base);
  if (next != regions_.end()) {
    assert(region.end() <= next->second.base && "overlapping region");
  }
  if (next != regions_.begin()) {
    [[maybe_unused]] auto prev = std::prev(next);
    assert(prev->second.end() <= region.base && "overlapping region");
  }
  regions_.emplace(region.base, region);
}

bool AddressMap::Remove(Addr base) { return regions_.erase(base) > 0; }

const Region* AddressMap::Find(Addr a) const {
  auto it = regions_.upper_bound(a);
  if (it == regions_.begin()) {
    return nullptr;
  }
  --it;
  return it->second.Contains(a) ? &it->second : nullptr;
}

std::uint64_t AddressMap::PageBytesFor(Addr a) const {
  const Region* r = Find(a);
  return r == nullptr ? kSmallPageBytes : PageBytes(r->kind);
}

std::uint64_t AddressMap::TotalMappedBytes() const {
  std::uint64_t total = 0;
  for (const auto& [base, r] : regions_) {
    total += r.size;
  }
  return total;
}

}  // namespace ngx
