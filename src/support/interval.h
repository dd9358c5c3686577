// Half-open integer intervals and their overlap query.
//
// Used by the list scheduler to test a candidate execution window against
// the windows already placed (sched/list_placement.cpp).
#pragma once

#include <cstdint>

namespace argo::support {

/// Half-open interval [lo, hi) over a 64-bit time axis (cycles).
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  [[nodiscard]] bool empty() const noexcept { return hi <= lo; }
  [[nodiscard]] std::int64_t length() const noexcept {
    return empty() ? 0 : hi - lo;
  }
  [[nodiscard]] bool contains(std::int64_t t) const noexcept {
    return t >= lo && t < hi;
  }
  [[nodiscard]] bool overlaps(const Interval& other) const noexcept {
    return lo < other.hi && other.lo < hi;
  }

  friend bool operator==(const Interval&, const Interval&) = default;
};

}  // namespace argo::support
