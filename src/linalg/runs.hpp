// Active column runs: the part of a node's state a restricted covariance
// downdate touches (kernels.hpp, backend.hpp).
#pragma once

#include <cstddef>
#include <span>

#include "support/types.hpp"

namespace phmse::linalg {

/// A half-open range [begin, end) of state indices.  A downdate restricted
/// to a list of runs updates C(i, j) only when i and j both lie in a run.
struct ColumnRun {
  Index begin = 0;
  Index end = 0;
};

/// The single run [0, n) — no run when n == 0 — viewed as a run list: the
/// unrestricted downdate.  Converts to std::span<const ColumnRun> over its
/// own storage, so pass it to a kernel as a temporary argument; a span kept
/// past the full expression would dangle.
class WholeRun {
 public:
  explicit WholeRun(Index n) : run_{0, n}, count_(n > 0 ? 1 : 0) {}
  operator std::span<const ColumnRun>() const { return {&run_, count_}; }

 private:
  ColumnRun run_;
  std::size_t count_;
};

/// True when every run is non-empty, inside [0, n), and the runs are
/// strictly ascending with no overlap.  An empty list is valid.
inline bool runs_valid(std::span<const ColumnRun> runs, Index n) {
  Index prev_end = 0;
  for (const ColumnRun& r : runs) {
    if (r.begin < prev_end || r.end <= r.begin || r.end > n) return false;
    prev_end = r.end;
  }
  return true;
}

/// Number of state indices the runs cover.
inline Index run_columns(std::span<const ColumnRun> runs) {
  Index total = 0;
  for (const ColumnRun& r : runs) total += r.end - r.begin;
  return total;
}

}  // namespace phmse::linalg
