#include "service/fingerprint.hpp"

#include <bit>
#include <cstring>

namespace phmse::service {

namespace {

/// Appends fields to the canonical word stream.  Doubles are encoded by
/// bit pattern: the fingerprint must distinguish any value change exactly,
/// not up to rounding.
class Encoder {
 public:
  explicit Encoder(std::vector<std::uint64_t>& words) : words_(words) {}

  void word(std::uint64_t w) { words_.push_back(w); }
  void integer(long long v) { word(static_cast<std::uint64_t>(v)); }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }

  void string(const std::string& s) {
    integer(static_cast<long long>(s.size()));
    std::uint64_t w = 0;
    std::size_t filled = 0;
    for (unsigned char c : s) {
      w |= static_cast<std::uint64_t>(c) << (8 * filled);
      if (++filled == 8) {
        word(w);
        w = 0;
        filled = 0;
      }
    }
    if (filled != 0) word(w);
  }

 private:
  std::vector<std::uint64_t>& words_;
};

std::uint64_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint64_t w : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (w >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

Fingerprint fingerprint(const engine::Problem& problem,
                        const engine::CompileOptions& options) {
  Fingerprint fp;
  if (problem.recipe.empty()) return fp;  // opaque decompose: uncacheable

  Encoder enc(fp.words);
  enc.string(problem.recipe);
  enc.integer(problem.num_atoms);

  // Compile options that shape the plan.  calibrate_work_model and the
  // work-model coefficients are deliberately excluded: they steer the
  // schedule (a performance property), and reschedule() revises the
  // schedule on a cached plan anyway — the numerics are bitwise identical
  // across schedules (DESIGN.md §8).
  const core::HierSolveOptions& s = options.solve;
  enc.integer(s.batch_size);
  enc.integer(s.max_cycles);
  enc.real(s.tolerance);
  enc.real(s.prior_sigma);
  enc.integer(static_cast<long long>(s.policy.on_failure));
  enc.integer(s.policy.max_retries);
  enc.real(s.policy.regularization_init);
  enc.real(s.policy.regularization_growth);
  enc.real(s.policy.gate_chi2_per_dof);

  // Constraint structure in problem order: everything the compiled slots
  // depend on except the observed value (which set_observations rebinds).
  enc.integer(problem.constraints.size());
  for (const cons::Constraint& c : problem.constraints.all()) {
    enc.integer(static_cast<long long>(c.kind));
    for (Index atom : c.atoms) enc.integer(atom);
    enc.integer(c.axis);
    enc.real(c.variance);
    enc.integer(c.category);
  }

  fp.digest = fnv1a(fp.words);
  return fp;
}

}  // namespace phmse::service
