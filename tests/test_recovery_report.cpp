// What the verify-and-recover loop accepts and what it reports.
//
// Acceptance: a faulted attempt whose clustering is complete, properly
// colored and connected but has a cluster without its recorded center is
// not a valid decomposition (Claim 3's radius certificate is void), so
// the loop must keep recovering instead of answering kOk with it. The
// reproducer below was accepted that way before the loop checked
// centers.
//
// The service's validation gate refuses such a clustering the same way.
//
// Report: DistributedRun::sim bills the rounds, messages, words and
// activations of every attempt, discarded ones included. A counting
// transport stacked under the FaultyTransport sees every message each
// attempt staged, which pins the totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "service/decomposition_service.hpp"
#include "simulator/transport.hpp"

namespace dsnd {
namespace {

TEST(RecoveryReport, CenterlessAttemptIsNeverAccepted) {
  const VertexId n = 5000;
  const Graph g = make_gnp(n, 8.0 / (n - 1), 7);
  const CarveSchedule schedule = theorem1_schedule(n, 0, 4.0);
  FaultPlan plan;
  plan.seed = 5118;
  plan.drop_rate = 1e-4;
  plan.duplicate_rate = 1e-4;
  plan.delay_rate = 1e-4;
  plan.max_delay_rounds = 1;
  FaultyTransport transport(plan);
  EngineOptions engine;
  engine.transport = &transport;
  const DistributedRun run = run_schedule_distributed(g, schedule, 118, engine);

  const FastDecompositionReport report =
      validate_decomposition_fast(g, run.run.clustering());
  EXPECT_GT(run.run.carve.rollbacks + run.run.carve.run_retries, 0);
  ASSERT_EQ(run.run.carve.status, CarveStatus::kOk);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.proper_phase_coloring);
  EXPECT_TRUE(report.all_clusters_connected);
  EXPECT_EQ(report.centerless_clusters, 0);
  EXPECT_LE(report.strong_diameter_upper, schedule.bounds.strong_diameter);
}

TEST(RecoveryReport, ServiceGateRejectsCenterlessClusterings) {
  // Truncated radii (the kTruncate ablation) can leave a cluster without
  // its center while the partition stays complete, properly colored and
  // connected. Find such a seed, then check the service never serves it
  // as ok.
  const Graph g = make_gnp(64, 3.0 / 63.0, 1);
  CarveSchedule schedule;
  schedule.name = "truncated";
  schedule.betas.assign(32, 1.4);
  schedule.phase_rounds = 2;
  schedule.radius_overflow_at = 3.0;
  schedule.overflow_policy = OverflowPolicy::kTruncate;
  std::uint64_t centerless_seed = 0;
  for (std::uint64_t seed = 1; seed <= 2000 && centerless_seed == 0; ++seed) {
    const FastDecompositionReport report = validate_decomposition_fast(
        g, run_schedule(g, schedule, seed).clustering());
    if (report.complete && report.proper_phase_coloring &&
        report.all_clusters_connected && report.centerless_clusters > 0) {
      centerless_seed = seed;
    }
  }
  ASSERT_NE(centerless_seed, 0u)
      << "no seed left a connected cluster centerless";

  DecompositionService service;
  service.register_graph_view("g", g);
  ServiceRequest request;
  request.graph_id = "g";
  request.schedule = schedule;
  request.seed = centerless_seed;
  request.backend = ServiceBackend::kCentralized;
  const ServiceResponse response = service.submit(request);
  EXPECT_FALSE(response.valid);
  EXPECT_EQ(response.status, "INVALID");
}

/// Counts what each engine run hands to the exchange stage; wrapped by a
/// FaultyTransport it sees every attempt's traffic before any fault.
class CountingTransport final : public Transport {
 public:
  void begin_run(const TransportGeometry& geometry) override {
    ++attempts_;
    last_attempt_messages_ = 0;
    rounds_ += attempt_rounds_;
    attempt_rounds_ = 0;
    inner_.begin_run(geometry);
  }
  void exchange(std::size_t round,
                std::span<detail::SendStaging> staging) override {
    const std::size_t staged = detail::staged_message_count(staging);
    messages_ += staged;
    last_attempt_messages_ += staged;
    attempt_rounds_ = round + 1;
    inner_.exchange(round, staging);
  }
  std::span<const TransportSlice> delivery(unsigned s) const override {
    return inner_.delivery(s);
  }

  int attempts() const { return attempts_; }
  /// Rounds of every attempt up to its last exchange (quiet tails of an
  /// attempt never reach the transport).
  std::uint64_t rounds() const { return rounds_ + attempt_rounds_; }
  std::uint64_t messages() const { return messages_; }
  std::uint64_t last_attempt_messages() const {
    return last_attempt_messages_;
  }

 private:
  ReliableTransport inner_;
  int attempts_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t last_attempt_messages_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t attempt_rounds_ = 0;
};

TEST(RecoveryReport, SimBillsEveryAttempt) {
  const Graph g = make_gnp(200, 8.0 / 199.0, 4);
  const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4, 4.0);
  bool recovered = false;
  for (std::uint64_t seed = 1; seed <= 20 && !recovered; ++seed) {
    // Drops only: every message an attempt stages is either delivered
    // or counted as dropped, so staged = delivered + dropped exactly.
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_rate = 0.05;
    CountingTransport counter;
    FaultyTransport faulty(plan, &counter);
    EngineOptions engine;
    engine.transport = &faulty;
    const DistributedRun run =
        run_schedule_distributed(g, schedule, seed, engine);
    const CarveResult& carve = run.run.carve;
    const int attempts = 1 + carve.rollbacks + carve.run_retries;
    ASSERT_EQ(counter.attempts(), attempts) << "seed " << seed;
    // Every attempt's delivered messages are in the report ...
    EXPECT_EQ(run.sim.messages, counter.messages() - carve.faults.dropped)
        << "seed " << seed;
    // ... and so are their rounds, with a per-round series to match.
    EXPECT_LE(counter.rounds(), run.sim.rounds) << "seed " << seed;
    EXPECT_EQ(run.sim.messages_per_round.size(), run.sim.rounds);
    EXPECT_EQ(std::accumulate(run.sim.messages_per_round.begin(),
                              run.sim.messages_per_round.end(),
                              std::uint64_t{0}),
              run.sim.messages);
    EXPECT_GE(run.sim.words, run.sim.messages);
    if (attempts == 1) continue;
    recovered = true;
    // sim.faults stays the final attempt's; carve.faults totals them all.
    const std::uint64_t final_attempt_messages =
        counter.last_attempt_messages() - run.sim.faults.dropped;
    EXPECT_GT(run.sim.messages, final_attempt_messages) << "seed " << seed;
    EXPECT_GE(carve.faults.dropped, run.sim.faults.dropped);
    EXPECT_GT(run.sim.vertex_activations,
              static_cast<std::uint64_t>(g.num_vertices()) *
                  static_cast<std::uint64_t>(attempts))
        << "every attempt's round 0 runs every vertex";
  }
  EXPECT_TRUE(recovered) << "no seed exercised recovery";
}

}  // namespace
}  // namespace dsnd
