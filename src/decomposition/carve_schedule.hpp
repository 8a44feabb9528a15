// The beta-schedule abstraction at the heart of the decomposition layer.
//
// All three theorems of the paper are ONE carving process (carving.hpp)
// instantiated with different beta schedules:
//
//   - Theorem 1: lambda phases at constant beta = ln(cn)/k;
//   - Theorem 2: stage-decaying beta_i = ln(cn/e^i)/k, s_i phases each;
//   - Theorem 3: lambda phases at beta = (cn)^{-1/lambda} with a
//     real-valued radius parameter k = (cn)^{1/lambda} ln(cn).
//
// CarveSchedule captures everything a run needs *except* the seed: the
// per-phase betas, the per-phase broadcast round budget (ceil(k)), the
// Lemma 1 overflow threshold, and the bounds the theorem promises. Both
// execution backends consume the same schedule:
//
//   run_schedule(g, schedule, seed)              centralized reference
//   run_schedule_distributed(g, schedule, seed)  CONGEST protocol
//                                                (carving_protocol.hpp)
//
// and produce bit-identical clusterings on the same seed, so the bounds
// and parameters are derived exactly once per theorem — the theorem
// factories theorem{1,2,3}_schedule() declared next to their centralized
// drivers (elkin_neiman.hpp, multistage.hpp, high_radius.hpp) are the
// single source of truth the wrappers, benches, and tests all share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "decomposition/carving.hpp"
#include "decomposition/partition.hpp"
#include "graph/graph.hpp"

namespace dsnd {

/// Bounds promised by whichever theorem parameterized the run; benches
/// print measured-vs-bound and tests assert the measured side.
struct TheoremBounds {
  double strong_diameter = 0.0;
  double colors = 0.0;
  /// The theorem's whp round bound, counting every simulated round a
  /// phase occupies: ceil(k) broadcast rounds plus the membership
  /// announcement. Under the Las Vegas recarve loop
  /// (OverflowPolicy::kRetry) a run may additionally spend
  /// CarveResult::extra_rounds replaying overflowed phases; compare
  /// measured rounds against rounds_with_retries(run.extra_rounds) so
  /// the round-complexity claim stays honest.
  double rounds = 0.0;
  double success_probability = 0.0;

  /// The bound a specific Las Vegas run must meet: the whp bound plus
  /// the rounds its recarve retries actually consumed.
  double rounds_with_retries(std::int64_t extra_rounds) const {
    return rounds + static_cast<double>(extra_rounds);
  }
};

/// A fully derived carving schedule: the per-phase betas plus everything
/// the theorems promise about running them. Seed-independent, so one
/// schedule can drive many runs (and both backends).
struct CarveSchedule {
  /// Human-readable tag ("theorem1(k=4, c=4)") for traces and benches.
  std::string name;
  /// beta for phase t; phases beyond the schedule (run_to_completion
  /// overtime) reuse betas.back().
  std::vector<double> betas;
  /// Broadcast rounds per phase: ceil(k). Together with the membership
  /// announcement each phase occupies phase_rounds + 1 simulated rounds.
  std::int32_t phase_rounds = 1;
  /// Lemma 1's bad-event threshold (the paper's k + 1).
  double radius_overflow_at = 2.0;
  /// Recovery discipline when the bad event fires (see OverflowPolicy):
  /// kRetry makes every run's output valid unconditionally (Las Vegas);
  /// kTruncate preserves the historical flag-and-proceed behavior for
  /// ablations.
  OverflowPolicy overflow_policy = OverflowPolicy::kRetry;
  /// Resample budget per phase under kRetry.
  std::int32_t max_retries_per_phase = kDefaultMaxRetriesPerPhase;
  /// Whole-run restart budget for run_schedule_distributed's
  /// verify-and-recover loop under a LOSSY transport: an attempt whose
  /// output fails validation (or ends in a named engine failure) is
  /// retried with a run-salted seed up to this many times. Irrelevant —
  /// and never consulted — on reliable transports.
  std::int32_t max_run_retries = 4;
  /// Checkpoint-rollback budget for the same recovery loop: a failed
  /// attempt first restores the last validated phase-boundary checkpoint
  /// and replays only the suffix phases on a rollback-salted seed
  /// (stream_seed(seed, 2, rollback)), falling back to whole-run retries
  /// only when this budget is exhausted or no checkpoint exists yet.
  /// 0 disables rollback recovery entirely (the PR 7 retry-only loop).
  /// Never consulted on reliable transports.
  std::int32_t max_rollbacks = 8;
  /// Effective radius parameter (integer k for Theorems 1-2; the derived
  /// real k = (cn)^{1/lambda} ln(cn) for Theorem 3).
  double k = 0.0;
  /// Failure parameter; success probability is 1 - O(1)/c.
  double c = 0.0;
  TheoremBounds bounds;

  /// The scheduled number of phases (the theorem's color budget lambda).
  std::int32_t target_phases() const {
    return static_cast<std::int32_t>(betas.size());
  }

  /// Lowers the schedule to the carving core's parameter struct. margin
  /// and run_to_completion are run-time knobs (the E9 ablation and the
  /// success-event experiments), not part of the schedule itself.
  CarveParams params(std::uint64_t seed, bool run_to_completion = true,
                     double margin = 1.0) const;

  /// The named-failure round budget run_schedule_distributed derives for
  /// an n-vertex run when EngineOptions::max_rounds is left 0: the
  /// theorem's whp bound with a full per-phase retry budget, plus
  /// run-to-completion overtime slack (at worst one carved vertex per
  /// phase). Generous enough that no legitimate run ever hits it; a run
  /// that does gets RunStatus::kRoundBudgetExhausted instead of
  /// spinning. A schedule-level method so a reusable engine/context can
  /// apply it per run instead of baking it into the engine's options.
  std::size_t round_budget(VertexId num_vertices) const;
};

/// Caps on what a theorem schedule derives from (n, k, c, lambda): the
/// phase count sizes `betas` and the color budget, and the broadcast
/// rounds per phase size every shard's wake calendar. Both grow without
/// bound in c and in k or 1/lambda.
inline constexpr double kMaxSchedulePhases = 1 << 22;
inline constexpr double kMaxPhaseRounds = 1 << 16;

/// The theorem factories' size check, run before anything is cast to an
/// int or allocated: throws std::invalid_argument unless c * n is finite,
/// `phases` <= kMaxSchedulePhases and `phase_rounds` <= kMaxPhaseRounds.
/// The message names the theorem, its inputs and the derived value that
/// is out of range (never a source location), e.g. "theorem1(n=200,
/// k=1, c=1e+12): 6.585867696e+15 phases, above the cap of 4194304".
void require_schedule_size(const char* theorem, const char* param,
                           double value, VertexId n, double c,
                           double phases, double phase_rounds);

/// Applies an entry point's overflow-recovery knobs to a derived
/// schedule — the one place options-level policy meets the schedule, so
/// every theorem wrapper (centralized and distributed) stays in sync.
inline CarveSchedule with_overflow_policy(CarveSchedule schedule,
                                          OverflowPolicy policy,
                                          std::int32_t max_retries_per_phase) {
  schedule.overflow_policy = policy;
  schedule.max_retries_per_phase = max_retries_per_phase;
  return schedule;
}

struct DecompositionRun {
  CarveResult carve;
  TheoremBounds bounds;
  /// Copied from the schedule (see CarveSchedule::k / ::c).
  double k = 0.0;
  double c = 0.0;

  const Clustering& clustering() const { return carve.clustering; }
};

/// Executes the schedule with the centralized carver and attaches the
/// schedule's bounds. The CONGEST twin is run_schedule_distributed()
/// (carving_protocol.hpp); on the same seed the two are bit-identical.
DecompositionRun run_schedule(const Graph& g, const CarveSchedule& schedule,
                              std::uint64_t seed,
                              bool run_to_completion = true,
                              double margin = 1.0);

}  // namespace dsnd
