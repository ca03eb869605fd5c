#include "core/memory_governor.hpp"

namespace hs {

std::optional<BufferId> MemoryGovernor::pick_victim(DomainId domain,
                                                    MemKind kind) const {
  std::optional<BufferId> victim;
  std::uint64_t oldest = 0;
  const auto begin = residents_.lower_bound({domain.value, 0});
  const auto end = residents_.upper_bound({domain.value, UINT32_MAX});
  for (auto it = begin; it != end; ++it) {
    const Resident& r = it->second;
    if (r.kind != kind || r.pins != 0) {
      continue;
    }
    if (!victim.has_value() || r.last_use < oldest) {
      victim = BufferId{it->first.second};
      oldest = r.last_use;
    }
  }
  return victim;
}

}  // namespace hs
