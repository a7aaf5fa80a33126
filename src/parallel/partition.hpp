// Static partitioning of iteration ranges.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace phmse::par {

/// A half-open index range [begin, end).
struct Range {
  Index begin = 0;
  Index end = 0;

  Index size() const { return end - begin; }
  bool empty() const { return end <= begin; }
  bool operator==(const Range&) const = default;
};

/// Splits [0, n) into `parts` contiguous ranges whose sizes differ by at
/// most one (the first `n % parts` ranges get the extra element).  Ranges
/// may be empty when parts > n.
std::vector<Range> split_evenly(Index n, int parts);

/// The `lane`-th of `parts` even chunks of [0, n); equivalent to
/// split_evenly(n, parts)[lane] without materializing the vector.
Range even_chunk(Index n, int parts, int lane);

/// Splits [0, n) into contiguous ranges so each range's summed weight is as
/// close as possible to total/parts (greedy prefix cut).  `weight[i]` is the
/// weight of element i; weights must be non-negative.
std::vector<Range> split_weighted(const std::vector<double>& weight,
                                  int parts);

/// Units of a paired iteration space over items [0, n): unit u covers item
/// u and its mirror n-1-u (the middle item alone when n is odd).  When item
/// i costs about i (rows of a triangle), every unit costs about the same,
/// so even_chunk over the units balances lanes.
inline Index paired_units(Index n) { return (n + 1) / 2; }

/// Calls fn(item) for both items of every unit in [begin, end).
template <class Fn>
void for_each_paired(Index begin, Index end, Index n, Fn&& fn) {
  for (Index u = begin; u < end; ++u) {
    fn(u);
    if (n - 1 - u != u) fn(n - 1 - u);
  }
}

}  // namespace phmse::par
