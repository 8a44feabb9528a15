#include "decomposition/carve_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "support/assert.hpp"

namespace dsnd {

CarveParams CarveSchedule::params(std::uint64_t seed,
                                  bool run_to_completion,
                                  double margin) const {
  DSND_REQUIRE(!betas.empty(), "carve schedule must be nonempty");
  CarveParams p;
  p.betas = betas;
  p.phase_rounds = phase_rounds;
  p.margin = margin;
  p.radius_overflow_at = radius_overflow_at;
  p.overflow_policy = overflow_policy;
  p.max_retries_per_phase = max_retries_per_phase;
  p.run_to_completion = run_to_completion;
  p.seed = seed;
  return p;
}

void require_schedule_size(const char* theorem, const char* param,
                           double value, VertexId n, double c,
                           double phases, double phase_rounds) {
  const double cn = c * static_cast<double>(n);
  // Written as !(x <= cap) so that NaN fails too.
  const bool cn_ok = std::isfinite(cn);
  const bool phases_ok = phases <= kMaxSchedulePhases;
  const bool rounds_ok = phase_rounds <= kMaxPhaseRounds;
  if (cn_ok && phases_ok && rounds_ok) return;
  std::ostringstream message;
  // Ten digits print every int32 input and both caps exactly.
  message << std::setprecision(10) << theorem << "(n=" << n << ", " << param << "=" << value
          << ", c=" << c << "): ";
  if (!cn_ok) {
    message << "c * n = " << cn << " is not finite";
  } else if (!phases_ok) {
    message << phases << " phases, above the cap of " << kMaxSchedulePhases;
  } else {
    message << phase_rounds << " rounds per phase, above the cap of "
            << kMaxPhaseRounds;
  }
  throw std::invalid_argument(message.str());
}

std::size_t CarveSchedule::round_budget(VertexId num_vertices) const {
  const auto phase_len =
      static_cast<std::size_t>(std::max(phase_rounds, 0)) + 1;
  const auto attempts =
      1 + static_cast<std::size_t>(std::max(max_retries_per_phase, 0));
  const double bound_rounds = bounds.rounds_with_retries(
      static_cast<std::int64_t>(attempts * phase_len));
  const std::size_t overtime =
      (static_cast<std::size_t>(num_vertices) + betas.size() + 16) *
      attempts * phase_len;
  return static_cast<std::size_t>(8.0 * std::max(bound_rounds, 0.0)) +
         overtime + 64;
}

DecompositionRun run_schedule(const Graph& g, const CarveSchedule& schedule,
                              std::uint64_t seed, bool run_to_completion,
                              double margin) {
  DSND_REQUIRE(g.num_vertices() >= 1, "graph must be nonempty");
  DecompositionRun run;
  run.carve =
      carve_decomposition(g, schedule.params(seed, run_to_completion, margin));
  run.bounds = schedule.bounds;
  run.k = schedule.k;
  run.c = schedule.c;
  return run;
}

}  // namespace dsnd
