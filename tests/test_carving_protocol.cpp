// Equivalence of the generic distributed carving protocol with the
// centralized carver for all three theorem schedules (Theorem 1 is
// covered again, more extensively, in test_elkin_neiman_distributed).
#include "decomposition/carving_protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "decomposition/carve_schedule.hpp"
#include "decomposition/elkin_neiman_distributed.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "simulator/transport.hpp"

namespace dsnd {
namespace {

void expect_same_clustering(const Clustering& a, const Clustering& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_clusters(), b.num_clusters());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.cluster_of(v), b.cluster_of(v)) << "v=" << v;
  }
  for (ClusterId c = 0; c < a.num_clusters(); ++c) {
    ASSERT_EQ(a.center_of(c), b.center_of(c)) << "c=" << c;
    ASSERT_EQ(a.color_of(c), b.color_of(c)) << "c=" << c;
  }
}

TEST(CarvingProtocol, GenericScheduleMatchesCentralized) {
  const Graph g = make_gnp(80, 0.08, 4);
  CarveParams params;
  // A hand-rolled decaying schedule distinct from all three theorems.
  for (int i = 0; i < 40; ++i) {
    params.betas.push_back(1.5 / (1.0 + 0.1 * i));
  }
  params.phase_rounds = 4;
  params.radius_overflow_at = 5.0;
  params.seed = 23;
  const CarveResult central = carve_decomposition(g, params);
  const DistributedCarveResult dist =
      carve_decomposition_distributed(g, params);
  expect_same_clustering(central.clustering, dist.carve.clustering);
  EXPECT_EQ(central.phases_used, dist.carve.phases_used);
  EXPECT_EQ(central.rounds, dist.carve.rounds);
  EXPECT_EQ(central.radius_overflow, dist.carve.radius_overflow);
  EXPECT_EQ(central.carved_per_phase, dist.carve.carved_per_phase);
}

TEST(CarvingProtocol, MultistageDistributedMatchesCentralized) {
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    const Graph g = make_grid2d(9, 9);
    MultistageOptions options;
    options.k = 3;
    options.seed = seed;
    const DecompositionRun central = multistage_decomposition(g, options);
    const DistributedRun dist = multistage_distributed(g, options);
    expect_same_clustering(central.clustering(), dist.run.clustering());
    EXPECT_EQ(central.carve.phases_used, dist.run.carve.phases_used);
    EXPECT_LE(dist.sim.max_message_words, kMaxProtocolMessageWords);
  }
}

TEST(CarvingProtocol, HighRadiusDistributedMatchesCentralized) {
  for (std::uint64_t seed : {1ULL, 2ULL}) {
    const Graph g = make_gnp(64, 0.1, seed);
    HighRadiusOptions options;
    options.lambda = 3;
    options.seed = seed;
    const DecompositionRun central = high_radius_decomposition(g, options);
    const DistributedRun dist = high_radius_distributed(g, options);
    expect_same_clustering(central.clustering(), dist.run.clustering());
    EXPECT_EQ(central.carve.phases_used, dist.run.carve.phases_used);
    EXPECT_LE(dist.sim.max_message_words, kMaxProtocolMessageWords);
  }
}

TEST(CarvingProtocol, ChangeBasedSendingBoundsTraffic) {
  // Each vertex transmits each distinct (center, dist) top-2 entry at
  // most a handful of times; total entry messages stay far below the
  // always-send bound of 2 per edge-direction per broadcast round.
  const Graph g = make_cycle(64);
  CarveParams params;
  params.betas.assign(32, 1.0);
  params.phase_rounds = 6;
  params.radius_overflow_at = 7.0;
  params.seed = 3;
  const DistributedCarveResult dist =
      carve_decomposition_distributed(g, params);
  const std::uint64_t always_send_bound =
      static_cast<std::uint64_t>(dist.carve.phases_used) * 6 * 2 * 2 *
      static_cast<std::uint64_t>(g.num_edges());
  EXPECT_LT(dist.sim.messages, always_send_bound / 2);
}

TEST(CarvingProtocol, RejectsUnsupportedModes) {
  const Graph g = make_path(8);
  CarveParams params;
  params.betas = {1.0};
  params.phase_rounds = 2;
  params.margin = 0.5;
  EXPECT_THROW(carve_decomposition_distributed(g, params),
               std::invalid_argument);
  params.margin = 1.0;
  params.run_to_completion = false;
  EXPECT_THROW(carve_decomposition_distributed(g, params),
               std::invalid_argument);
}

TEST(CarvingProtocol, ValidDecompositionUnderLongPhases) {
  // High-radius style: phases far longer than the graph diameter; the
  // change-based sender must go quiet after the fixed point.
  const Graph g = make_grid2d(7, 7);
  CarveParams params;
  params.betas.assign(3, 0.15);
  params.phase_rounds = 60;
  params.radius_overflow_at = 61.0;
  params.seed = 11;
  const DistributedCarveResult dist =
      carve_decomposition_distributed(g, params);
  EXPECT_TRUE(dist.carve.clustering.is_complete());
  const DecompositionReport report = validate_decomposition(
      g, dist.carve.clustering, /*compute_weak=*/false);
  EXPECT_TRUE(report.complete);
}

/// FNV-1a over every vertex's cluster and every cluster's center and
/// color: one number that changes if any of them does.
std::uint64_t clustering_digest(const Clustering& clustering) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](std::int64_t x) {
    h = (h ^ static_cast<std::uint64_t>(x)) * 1099511628211ull;
  };
  for (VertexId v = 0; v < clustering.num_vertices(); ++v) {
    mix(clustering.cluster_of(v));
  }
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    mix(clustering.center_of(c));
    mix(clustering.color_of(c));
  }
  return h;
}

// The wire counts of Theorem 1 carves, pinned to the figures the carving
// protocol produced when it kept a full copy of the last considered top-2
// entries per vertex instead of two sent flags: the flags must suppress
// exactly the same rebroadcasts. The overflow threshold of the rgg case
// is lowered so salted Lemma 1 replays (the abort path) run too. On a
// reliable transport an entry's dist equals its arrival step, so a
// center's entry never improves after it first arrives; the delayed gnp
// case makes late shorter-path entries arrive, which is what exercises
// merge()'s in-place improvements and the swap that carries the flags.
TEST(CarvingProtocol, WireCountsArePinned) {
  struct Case {
    std::string name;
    Graph graph;
    double overflow_at;  // 0 = the schedule's own threshold
    double delay_rate;   // 0 = reliable transport
    std::uint64_t seed;
    std::uint64_t messages;
    std::uint64_t words;
    std::uint64_t activations;
    std::uint64_t digest;
  };
  const VertexId n = 4000;
  const double rgg_radius = std::sqrt(8.0 / (3.141592653589793 * n));
  const Case cases[] = {
      {"ring", make_cycle(n), 0.0, 0.0, 7, 19467, 63105, 53094,
       2560077628770783449ull},
      {"rgg", make_rgg(n, rgg_radius, 3), 4.5, 0.0, 11, 1585463, 6276164,
       2067156, 5562158015840299309ull},
      {"gnp", make_gnp(n, 8.0 / (n - 1), 5), 0.0, 0.0, 13, 262846, 988312,
       83339, 16371985652300388099ull},
      {"gnp-delayed", make_gnp(n, 8.0 / (n - 1), 5), 0.0, 0.02, 17, 217291,
       785269, 59018, 1429407027279913641ull},
  };
  for (const Case& c : cases) {
    CarveSchedule schedule = theorem1_schedule(n, 0, 4.0);
    if (c.overflow_at > 0.0) {
      schedule.radius_overflow_at = c.overflow_at;
      schedule.max_retries_per_phase = 64;
    }
    FaultPlan plan;
    plan.seed = 5;
    plan.delay_rate = c.delay_rate;
    plan.max_delay_rounds = 3;
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(c.name + " threads=" + std::to_string(threads));
      FaultyTransport transport(plan);
      EngineOptions options;
      options.threads = threads;
      if (c.delay_rate > 0.0) options.transport = &transport;
      const DistributedRun run =
          run_schedule_distributed(c.graph, schedule, c.seed, options);
      ASSERT_EQ(run.run.carve.status, CarveStatus::kOk);
      EXPECT_EQ(run.sim.messages, c.messages);
      EXPECT_EQ(run.sim.words, c.words);
      EXPECT_EQ(run.sim.vertex_activations, c.activations);
      EXPECT_EQ(clustering_digest(run.run.clustering()), c.digest);
      if (c.overflow_at > 0.0) {
        EXPECT_GT(run.run.carve.retries, 0);
      }
    }
  }
}

}  // namespace
}  // namespace dsnd
