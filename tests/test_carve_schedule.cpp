// The schedule abstraction itself: the theorem factories are the single
// source of truth for betas/bounds, the wrappers are thin instantiations
// of run_schedule, and the schedule totals match the paper's formulas.
#include "decomposition/carve_schedule.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

TEST(CarveSchedule, Theorem1FactoryMatchesFormulas) {
  const VertexId n = 256;
  const std::int32_t k = 4;
  const double c = 4.0;
  const CarveSchedule s = theorem1_schedule(n, k, c);
  EXPECT_EQ(s.target_phases(), elkin_neiman_target_phases(n, k, c));
  for (const double beta : s.betas) {
    EXPECT_DOUBLE_EQ(beta, elkin_neiman_beta(n, k, c));
  }
  EXPECT_EQ(s.phase_rounds, k);
  EXPECT_DOUBLE_EQ(s.radius_overflow_at, k + 1.0);
  EXPECT_DOUBLE_EQ(s.k, static_cast<double>(k));
  EXPECT_DOUBLE_EQ(s.bounds.strong_diameter, 2.0 * k - 2.0);
  EXPECT_DOUBLE_EQ(s.bounds.colors, static_cast<double>(s.target_phases()));
  // ceil(k) broadcast rounds plus the announcement round per phase.
  EXPECT_DOUBLE_EQ(s.bounds.rounds, (k + 1.0) * s.bounds.colors);
  EXPECT_DOUBLE_EQ(s.bounds.success_probability, 1.0 - 3.0 / c);
}

TEST(CarveSchedule, Theorem1AutoKSelectsCeilLogN) {
  const CarveSchedule s = theorem1_schedule(1024, 0, 4.0);
  EXPECT_DOUBLE_EQ(s.k, std::ceil(std::log(1024.0)));
  EXPECT_EQ(s.phase_rounds, static_cast<std::int32_t>(s.k));
}

TEST(CarveSchedule, Theorem2TotalsMatchBetaSchedule) {
  const VertexId n = 256;
  const std::int32_t k = 4;
  const double c = 6.0;
  const CarveSchedule s = theorem2_schedule(n, k, c);
  const auto betas = multistage_beta_schedule(n, k, c);
  ASSERT_EQ(s.betas.size(), betas.size());
  for (std::size_t t = 0; t < betas.size(); ++t) {
    EXPECT_DOUBLE_EQ(s.betas[t], betas[t]) << "phase " << t;
  }
  // Total scheduled phases stay within the theorem's 4k(cn)^{1/k} color
  // budget plus per-stage rounding slack.
  const double cn = c * static_cast<double>(n);
  EXPECT_DOUBLE_EQ(s.bounds.colors, 4.0 * k * std::pow(cn, 1.0 / k));
  EXPECT_LE(static_cast<double>(s.target_phases()),
            s.bounds.colors + std::log(static_cast<double>(n)) + 2.0);
  EXPECT_DOUBLE_EQ(s.bounds.success_probability, 1.0 - 5.0 / c);
  // Stage-decaying: betas never increase across the schedule.
  for (std::size_t t = 1; t < s.betas.size(); ++t) {
    EXPECT_LE(s.betas[t], s.betas[t - 1]);
  }
}

TEST(CarveSchedule, Theorem3RealKRounds) {
  const VertexId n = 100;
  const std::int32_t lambda = 2;
  const double c = 4.0;
  const CarveSchedule s = theorem3_schedule(n, lambda, c);
  const double k = high_radius_k(n, lambda, c);
  // The real-valued k shows up as ceil(k) broadcast rounds per phase and
  // exactly lambda scheduled phases at beta = ln(cn)/k = (cn)^{-1/lambda}.
  EXPECT_DOUBLE_EQ(s.k, k);
  EXPECT_EQ(s.phase_rounds, static_cast<std::int32_t>(std::ceil(k)));
  EXPECT_EQ(s.target_phases(), lambda);
  const double cn = c * static_cast<double>(n);
  for (const double beta : s.betas) {
    EXPECT_NEAR(beta, std::pow(cn, -1.0 / lambda), 1e-12);
  }
  EXPECT_DOUBLE_EQ(s.radius_overflow_at, k + 1.0);
  EXPECT_DOUBLE_EQ(s.bounds.strong_diameter, 2.0 * k);
  EXPECT_DOUBLE_EQ(s.bounds.colors, static_cast<double>(lambda));
  EXPECT_DOUBLE_EQ(s.bounds.rounds, lambda * (std::ceil(k) + 1.0));
}

TEST(CarveSchedule, RunsWithoutRetriesMeetTheRoundBound) {
  // The round bound counts the announcement round of every phase, so a
  // run inside the theorem's success event meets it as stated, with no
  // per-phase slack: rounds_with_retries(0) when no phase was replayed.
  // Theorem 3 runs that use all lambda phases exceed lambda * k, the
  // bound that left the announcement round out.
  const VertexId n = 300;
  const std::vector<CarveSchedule> schedules = {
      theorem1_schedule(n, 0, 4.0), theorem1_schedule(n, 4, 4.0),
      theorem3_schedule(n, 2, 4.0), theorem3_schedule(n, 3, 4.0)};
  int checked_without_retries = 0;
  for (const GraphFamily& family : standard_families()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Graph g = family.make(n, seed);
      for (const CarveSchedule& schedule : schedules) {
        const DistributedRun run =
            run_schedule_distributed(g, schedule, seed);
        const CarveResult& carve = run.run.carve;
        if (!carve.exhausted_within_target) continue;
        const std::string label =
            family.name + " " + schedule.name + " seed " + std::to_string(seed);
        // extra_rounds is 0 when no phase was replayed.
        const double bound =
            schedule.bounds.rounds_with_retries(carve.extra_rounds);
        EXPECT_LE(static_cast<double>(carve.rounds), bound) << label;
        EXPECT_LE(static_cast<double>(run.sim.rounds), bound) << label;
        if (carve.retries == 0) ++checked_without_retries;
      }
    }
  }
  EXPECT_GT(checked_without_retries, 100);
}

TEST(CarveSchedule, ParamsLowersScheduleVerbatim) {
  const CarveSchedule s = theorem2_schedule(128, 3, 6.0);
  const CarveParams p = s.params(/*seed=*/77, /*run_to_completion=*/false,
                                 /*margin=*/0.5);
  EXPECT_EQ(p.betas, s.betas);
  EXPECT_EQ(p.phase_rounds, s.phase_rounds);
  EXPECT_DOUBLE_EQ(p.radius_overflow_at, s.radius_overflow_at);
  EXPECT_EQ(p.seed, 77u);
  EXPECT_FALSE(p.run_to_completion);
  EXPECT_DOUBLE_EQ(p.margin, 0.5);
}

TEST(CarveSchedule, WrappersAreThinScheduleInstantiations) {
  // The options-struct entry points must behave exactly like building
  // the schedule and calling run_schedule — no second derivation path.
  const Graph g = make_gnp(120, 0.06, 9);
  const std::uint64_t seed = 31;
  {
    ElkinNeimanOptions options;
    options.k = 4;
    options.seed = seed;
    const DecompositionRun a = elkin_neiman_decomposition(g, options);
    const DecompositionRun b = run_schedule(
        g, theorem1_schedule(g.num_vertices(), 4, options.c), seed);
    EXPECT_EQ(a.carve.phases_used, b.carve.phases_used);
    EXPECT_DOUBLE_EQ(a.bounds.colors, b.bounds.colors);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(a.clustering().cluster_of(v), b.clustering().cluster_of(v));
    }
  }
  {
    MultistageOptions options;
    options.k = 3;
    options.seed = seed;
    const DecompositionRun a = multistage_decomposition(g, options);
    const DecompositionRun b = run_schedule(
        g, theorem2_schedule(g.num_vertices(), 3, options.c), seed);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(a.clustering().cluster_of(v), b.clustering().cluster_of(v));
    }
  }
  {
    HighRadiusOptions options;
    options.lambda = 3;
    options.seed = seed;
    const DecompositionRun a = high_radius_decomposition(g, options);
    const DecompositionRun b = run_schedule(
        g, theorem3_schedule(g.num_vertices(), 3, options.c), seed);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(a.clustering().cluster_of(v), b.clustering().cluster_of(v));
    }
  }
}

TEST(CarveSchedule, RunScheduleAttachesBounds) {
  const Graph g = make_path(60);
  const CarveSchedule s = theorem1_schedule(60, 3, 4.0);
  const DecompositionRun run = run_schedule(g, s, 5);
  EXPECT_DOUBLE_EQ(run.bounds.strong_diameter, s.bounds.strong_diameter);
  EXPECT_DOUBLE_EQ(run.bounds.colors, s.bounds.colors);
  EXPECT_DOUBLE_EQ(run.k, s.k);
  EXPECT_DOUBLE_EQ(run.c, s.c);
  EXPECT_EQ(run.carve.target_phases, s.target_phases());
}

TEST(CarveSchedule, RejectsBadParameters) {
  EXPECT_THROW(theorem1_schedule(0, 3, 4.0), std::invalid_argument);
  EXPECT_THROW(theorem1_schedule(100, -1, 4.0), std::invalid_argument);
  EXPECT_THROW(theorem2_schedule(100, 3, 1.0), std::invalid_argument);
  EXPECT_THROW(theorem3_schedule(100, 0, 4.0), std::invalid_argument);
  CarveSchedule empty;
  EXPECT_THROW(empty.params(1), std::invalid_argument);
}

// Inputs whose derived schedule would overflow an int cast or allocate
// without bound are refused before anything is built, with a message
// that names the theorem and the derived value but no source file.
TEST(CarveSchedule, RefusesSchedulesPastTheSizeCaps) {
  const auto expect_refused = [](auto make, const std::string& needle) {
    try {
      make();
      ADD_FAILURE() << "accepted: " << needle;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
    }
  };
  expect_refused([] { return theorem1_schedule(200, 1, 1e308); },
                 "is not finite");
  expect_refused([] { return theorem1_schedule(200, 1, 1e12); },
                 "phases, above the cap");
  expect_refused([] { return theorem1_schedule(200, 2000000000, 4.0); },
                 "rounds per phase, above the cap");
  expect_refused([] { return theorem2_schedule(200, 1, 1e12); },
                 "phases, above the cap");
  expect_refused([] { return theorem2_schedule(200, 1, 1e308); },
                 "is not finite");
  expect_refused([] { return theorem3_schedule(200, 2147483647, 4.0); },
                 "phases, above the cap");
  expect_refused([] { return theorem3_schedule(1000000, 1, 4.0); },
                 "rounds per phase, above the cap");
  // Just inside the caps still builds.
  EXPECT_EQ(theorem3_schedule(200, 1 << 22, 4.0).target_phases(), 1 << 22);
  EXPECT_LE(theorem3_schedule(1024, 1, 4.0).phase_rounds, kMaxPhaseRounds);
  EXPECT_EQ(theorem1_schedule(200, 1 << 16, 4.0).phase_rounds, 1 << 16);
}

}  // namespace
}  // namespace dsnd
