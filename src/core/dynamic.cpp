#include "core/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "estimation/update.hpp"
#include "linalg/backend.hpp"
#include "support/check.hpp"

namespace phmse::core {
namespace {

using est::NodeState;
using linalg::Vector;

// Collects the nodes at every depth (root = depth 0).
void collect_levels(HierNode& node, int depth,
                    std::vector<std::vector<HierNode*>>& levels) {
  if (static_cast<int>(levels.size()) <= depth) {
    levels.resize(static_cast<std::size_t>(depth) + 1);
  }
  levels[static_cast<std::size_t>(depth)].push_back(&node);
  for (auto& child : node.children) collect_levels(*child, depth + 1, levels);
}

// Splits `processors` among the wave's nodes proportionally to own_work
// (including assembly), each node getting at least one; returns per-node
// (first, count).  Nodes keep wave order, so groups are contiguous.
std::vector<std::pair<int, int>> wave_groups(
    const std::vector<HierNode*>& wave, int processors) {
  const int n = static_cast<int>(wave.size());
  std::vector<std::pair<int, int>> out(static_cast<std::size_t>(n));
  if (n >= processors) {
    // More nodes than processors: round-robin sharing, one each.
    for (int i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)] = {i % processors, 1};
    }
    return out;
  }
  double total = 0.0;
  for (const HierNode* node : wave) total += std::max(node->own_work, 1e-30);

  // Proportional apportionment with a floor of 1: every extra processor
  // goes to the group whose deficit (claimed share minus current size) is
  // largest.
  std::vector<int> count(static_cast<std::size_t>(n), 1);
  std::vector<double> share(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    share[static_cast<std::size_t>(i)] =
        std::max(wave[static_cast<std::size_t>(i)]->own_work, 1e-30) / total *
        processors;
  }
  for (int extra = 0; extra < processors - n; ++extra) {
    int best = 0;
    double best_deficit = -std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      const double deficit = share[static_cast<std::size_t>(i)] -
                             count[static_cast<std::size_t>(i)];
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = i;
      }
    }
    count[static_cast<std::size_t>(best)] += 1;
  }
  int cursor = 0;
  for (int i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] = {cursor,
                                        count[static_cast<std::size_t>(i)]};
    cursor += count[static_cast<std::size_t>(i)];
  }
  return out;
}

}  // namespace

DynamicSimResult solve_hierarchical_dynamic_sim(
    Hierarchy& hierarchy, const Vector& initial_x,
    const HierSolveOptions& options, simarch::SimMachine& machine) {
  PHMSE_CHECK(static_cast<Index>(initial_x.size()) == hierarchy.root().dim(),
              "initial state dimension mismatch");
  PHMSE_CHECK(options.max_cycles >= 1, "need at least one cycle");
  machine.reset();

  std::vector<std::vector<HierNode*>> levels;
  collect_levels(hierarchy.root(), 0, levels);

  DynamicSimResult out;
  Vector current = initial_x;
  est::BatchUpdater updater;
  updater.set_backend(
      &linalg::resolve_backend(options.backend, "HierSolveOptions.backend"));
  const int procs = machine.processors();

  for (int cycle = 0; cycle < options.max_cycles; ++cycle) {
    std::unordered_map<const HierNode*, NodeState> states;

    // Waves from the deepest level up to the root.
    for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
      const auto groups = wave_groups(*it, procs);
      for (std::size_t i = 0; i < it->size(); ++i) {
        HierNode* node = (*it)[i];
        const auto [first, count] = groups[i];
        simarch::SimContext ctx(machine, first, count);

        NodeState state;
        if (node->is_leaf()) {
          state = est::make_state_from_full(current, node->atom_begin,
                                            node->atom_end,
                                            options.prior_sigma);
        } else {
          // Re-assemble from this cycle's child posteriors.
          NodeState assembled;
          assembled.atom_begin = node->atom_begin;
          assembled.atom_end = node->atom_end;
          const Index n = assembled.dim();
          assembled.x.resize(static_cast<std::size_t>(n));
          assembled.c.resize_zero(n, n);
          Index offset = 0;
          // Copy child blocks; charge as a single vec region.
          ctx.parallel(
              perf::Category::kVector, n,
              [&](Index begin, Index end) {
                par::KernelStats st;
                st.bytes_stream = 16.0 * static_cast<double>(end - begin) *
                                  static_cast<double>(n) /
                                  static_cast<double>(node->children.size());
                return st;
              },
              [&](Index, Index, int) {});
          for (auto& child : node->children) {
            NodeState& cs = states.at(child.get());
            const Index cdim = cs.dim();
            for (Index r = 0; r < cdim; ++r) {
              const auto src = cs.c.row(r);
              std::copy(src.begin(), src.end(),
                        assembled.c.row(offset + r).begin() + offset);
              assembled.x[static_cast<std::size_t>(offset + r)] =
                  cs.x[static_cast<std::size_t>(r)];
            }
            offset += cdim;
            states.erase(child.get());
          }
          state = std::move(assembled);
        }
        updater.apply_all(ctx, state, node->constraints, options.batch_size,
                          options.policy);
        states.emplace(node, std::move(state));
      }
      // Periodic global synchronization between waves.
      machine.sync_range(0, procs);
    }

    out.state = std::move(states.at(&hierarchy.root()));
    ++out.cycles;
    double sum = 0.0;
    for (std::size_t i = 0; i < current.size(); ++i) {
      const double d = out.state.x[i] - current[i];
      sum += d * d;
    }
    out.last_cycle_delta =
        current.empty()
            ? 0.0
            : std::sqrt(sum / static_cast<double>(current.size()));
    current = out.state.x;
    if (options.tolerance > 0.0 &&
        out.last_cycle_delta < options.tolerance) {
      out.converged = true;
      break;
    }
  }

  out.vtime = machine.elapsed();
  out.breakdown = machine.reported_profile();
  return out;
}

}  // namespace phmse::core
