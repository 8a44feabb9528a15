// Carving on the surviving graph: a vertex that has received a
// neighbor's [leave] never sends to that neighbor again.
//
// LeaveAudit sits on the engine's transport and watches the wire: it
// records every leave it delivers and fails the run if the receiver
// later stages a message to the departed vertex. The cases cover both
// carving protocols, ring / rgg / gnp, one and four workers, identity
// and grid-bucket layouts, a warm context and a faulted run that rolls
// back. Skipping the departed must not change any output: every case
// also compares its clustering with the centralized carve.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "decomposition/carving_protocol.hpp"
#include "decomposition/departed_neighbors.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/linial_saks.hpp"
#include "decomposition/linial_saks_distributed.hpp"
#include "graph/generators.hpp"
#include "graph/relabel.hpp"
#include "simulator/engine.hpp"
#include "simulator/transport.hpp"
#include "support/rng.hpp"

namespace dsnd {
namespace {

// The carving protocols' one-word [leave] message (kTagLeave).
constexpr std::uint64_t kLeaveTag = 2;

/// Forwards to an inner transport and audits the traffic: a message
/// staged from u to w after a leave of w was delivered to u is a
/// violation. Leaves delivered in round r reach their receivers' round
/// r + 1, so they are recorded after the round's own sends are audited.
/// Knowledge resets with every engine run (each recovery attempt).
class LeaveAudit final : public Transport {
 public:
  explicit LeaveAudit(Transport* inner = nullptr)
      : inner_(inner != nullptr ? inner : &reliable_) {}

  void begin_run(const TransportGeometry& geometry) override {
    shards_ = geometry.shards;
    known_.clear();
    inner_->begin_run(geometry);
  }

  void exchange(std::size_t round,
                std::span<detail::SendStaging> staging) override {
    for (const detail::SendStaging& worker : staging) {
      for (const detail::ShardBucket& bucket : worker.buckets) {
        for (const detail::MsgHeader& h : bucket.headers) {
          if (known_.count(key(h.from, h.to)) != 0) ++violations_;
        }
      }
    }
    inner_->exchange(round, staging);
    for (unsigned s = 0; s < shards_; ++s) {
      for (const TransportSlice& slice : inner_->delivery(s)) {
        for (const detail::MsgHeader& h : slice.headers) {
          if (h.length == 1 && slice.words[h.word_begin] == kLeaveTag) {
            known_.insert(key(h.to, h.from));
            ++leaves_;
          }
        }
      }
    }
  }

  std::span<const TransportSlice> delivery(unsigned s) const override {
    return inner_->delivery(s);
  }
  std::size_t pending() const override { return inner_->pending(); }
  bool lossy() const override { return inner_->lossy(); }
  FaultCounters round_faults() const override {
    return inner_->round_faults();
  }

  std::uint64_t violations() const { return violations_; }
  std::uint64_t leaves() const { return leaves_; }

 private:
  static std::uint64_t key(VertexId receiver, VertexId departed) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(receiver))
            << 32) |
           static_cast<std::uint32_t>(departed);
  }
  Transport* inner_;
  ReliableTransport reliable_;
  unsigned shards_ = 1;
  std::unordered_set<std::uint64_t> known_;
  std::uint64_t violations_ = 0;
  std::uint64_t leaves_ = 0;
};

constexpr VertexId kVertices = 3000;

/// A graph with unit-square coordinates for the grid-bucket layout: the
/// rgg's own points, a circle for the ring, seeded points for gnp.
GeometricGraph make_instance(const std::string& family) {
  if (family == "rgg") {
    const double radius =
        std::sqrt(8.0 / (3.14159265358979 * static_cast<double>(kVertices)));
    return make_rgg_geometric(kVertices, radius, 5);
  }
  GeometricGraph instance;
  instance.graph = family == "ring"
                       ? make_cycle(kVertices)
                       : make_gnp(kVertices, 8.0 / (kVertices - 1), 5);
  Xoshiro256ss rng(17);
  for (VertexId v = 0; v < kVertices; ++v) {
    const double angle = 6.28318530717959 * v / kVertices;
    instance.x.push_back(family == "ring" ? 0.5 + 0.45 * std::cos(angle)
                                          : uniform_unit(rng));
    instance.y.push_back(family == "ring" ? 0.5 + 0.45 * std::sin(angle)
                                          : uniform_unit(rng));
  }
  return instance;
}

void expect_same_clustering(const Clustering& a, const Clustering& b,
                            const std::string& label) {
  ASSERT_EQ(a.num_clusters(), b.num_clusters()) << label;
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.cluster_of(v), b.cluster_of(v)) << label << " vertex " << v;
  }
  for (ClusterId c = 0; c < a.num_clusters(); ++c) {
    ASSERT_EQ(a.center_of(c), b.center_of(c)) << label;
    ASSERT_EQ(a.color_of(c), b.color_of(c)) << label;
  }
}

TEST(SurvivingGraph, NoSendToADepartedNeighbor) {
  const CarveSchedule schedule = theorem1_schedule(kVertices, 0, 4.0);
  constexpr std::uint64_t kSeed = 11;
  for (const std::string family : {"ring", "rgg", "gnp"}) {
    const GeometricGraph instance = make_instance(family);
    const Graph& g = instance.graph;
    const DecompositionRun central = run_schedule(g, schedule, kSeed);
    const LayoutGraph lg = make_layout_graph(
        g, grid_bucket_layout(instance.x, instance.y, 16));
    for (const unsigned threads : {1u, 4u}) {
      for (const bool grid : {false, true}) {
        const std::string label = family + " threads=" +
                                  std::to_string(threads) +
                                  (grid ? " grid-bucket" : " identity");
        LeaveAudit audit;
        EngineOptions engine;
        engine.threads = threads;
        engine.transport = &audit;
        const DistributedRun run =
            grid ? run_schedule_distributed(lg, schedule, kSeed, engine)
                 : run_schedule_distributed(g, schedule, kSeed, engine);
        EXPECT_EQ(run.run.carve.status, CarveStatus::kOk) << label;
        EXPECT_GT(audit.leaves(), 0u) << label;
        EXPECT_EQ(audit.violations(), 0u) << label;
        expect_same_clustering(run.run.clustering(), central.clustering(),
                               label);
      }
    }
  }
}

TEST(SurvivingGraph, WarmContextReRunsSkipTheDeparted) {
  const GeometricGraph instance = make_instance("gnp");
  const Graph& g = instance.graph;
  const CarveSchedule schedule = theorem1_schedule(kVertices, 0, 4.0);
  LeaveAudit audit;
  EngineOptions engine;
  engine.threads = 4;
  engine.transport = &audit;
  CarveContext context(g, engine);
  const DistributedRun first = run_schedule_distributed(context, schedule, 3);
  (void)run_schedule_distributed(context, schedule, 4);
  const DistributedRun again = run_schedule_distributed(context, schedule, 3);
  EXPECT_EQ(audit.violations(), 0u);
  EXPECT_GT(audit.leaves(), 0u);
  // The departed-neighbor flags start clean on every run: the warm
  // re-run repeats the first run's traffic exactly.
  EXPECT_EQ(again.sim.messages, first.sim.messages);
  EXPECT_EQ(again.sim.messages_per_round, first.sim.messages_per_round);
  expect_same_clustering(again.run.clustering(),
                         run_schedule(g, schedule, 3).clustering(), "warm");
}

TEST(SurvivingGraph, RollbackRunsSkipTheDeparted) {
  // A checkpoint rollback rebuilds the flags from the restored state;
  // the replayed suffix must still never address a departed neighbor.
  const Graph g = make_gnp(400, 8.0 / 399.0, 3);
  const CarveSchedule schedule = theorem1_schedule(g.num_vertices(), 4, 4.0);
  bool rolled_back = false;
  for (std::uint64_t seed = 1; seed <= 20 && !rolled_back; ++seed) {
    FaultPlan plan;
    plan.seed = 100 + seed;
    plan.drop_rate = 0.02;
    plan.delay_rate = 0.02;
    plan.max_delay_rounds = 2;
    FaultyTransport faulty(plan);
    LeaveAudit audit(&faulty);
    EngineOptions engine;
    engine.threads = 4;
    engine.transport = &audit;
    const DistributedRun run =
        run_schedule_distributed(g, schedule, seed, engine);
    EXPECT_EQ(audit.violations(), 0u) << "seed " << seed;
    if (run.run.carve.rollbacks > 0) {
      rolled_back = true;
      EXPECT_GT(audit.leaves(), 0u);
    }
  }
  EXPECT_TRUE(rolled_back) << "no seed exercised a rollback";
}

TEST(SurvivingGraph, LinialSaksSkipsTheDeparted) {
  const Graph g = make_gnp(kVertices, 8.0 / (kVertices - 1), 9);
  LinialSaksOptions options;
  options.seed = 5;
  const DecompositionRun central = linial_saks_decomposition(g, options);
  for (const unsigned threads : {1u, 4u}) {
    LeaveAudit audit;
    EngineOptions engine;
    engine.threads = threads;
    engine.transport = &audit;
    const DistributedLsRun run = linial_saks_distributed(g, options, engine);
    EXPECT_GT(audit.leaves(), 0u);
    EXPECT_EQ(audit.violations(), 0u) << "threads " << threads;
    expect_same_clustering(run.run.clustering(), central.clustering(),
                           "linial-saks threads=" + std::to_string(threads));
  }
}

/// Vertex 0 of a star broadcasts once with a skip mask over its row.
class MaskedBroadcast final : public Protocol {
 public:
  explicit MaskedBroadcast(std::vector<char> skip) : skip_(std::move(skip)) {}
  void begin(const Graph& g) override {
    received_.assign(static_cast<std::size_t>(g.num_vertices()), 0);
    rounds_begun_ = 0;
  }
  // Serial hook: counting rounds here keeps on_round free of shared
  // writes under several workers.
  void on_round_begin(std::size_t /*round*/, RoundPool& /*pool*/) override {
    ++rounds_begun_;
  }
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    received_[static_cast<std::size_t>(v)] +=
        static_cast<int>(inbox.size());
    if (round == 0 && v == 0) out.send_to_all_neighbors({7}, skip_);
  }
  bool finished() const override { return rounds_begun_ == 2; }
  const std::vector<int>& received() const { return received_; }

 private:
  std::vector<char> skip_;
  std::vector<int> received_;
  int rounds_begun_ = 0;
};

TEST(SurvivingGraph, SkipMaskLeavesOutFlaggedNeighbors) {
  const Graph star = make_star(6);  // center 0, leaves 1..5
  for (const unsigned threads : {1u, 3u}) {
    EngineOptions options;
    options.threads = threads;
    SyncEngine engine(star, options);
    MaskedBroadcast protocol({0, 1, 0, 1, 0});
    const SimMetrics metrics = engine.run(protocol, 8);
    EXPECT_EQ(metrics.messages, 3u);
    EXPECT_EQ(protocol.received(), (std::vector<int>{0, 1, 0, 1, 0, 1}));
  }
  SyncEngine engine(star);
  MaskedBroadcast short_mask({0, 1});
  EXPECT_THROW(engine.run(short_mask, 8), std::invalid_argument);
}

TEST(DepartedNeighbors, RecordRebuildAndReset) {
  const Graph path = make_path(4);  // 0 - 1 - 2 - 3
  DepartedNeighbors departed;
  departed.reset(path);
  departed.record(1, 2);
  EXPECT_EQ(std::vector<char>(departed.row(1).begin(), departed.row(1).end()),
            (std::vector<char>{0, 1}));
  EXPECT_EQ(std::vector<char>(departed.row(2).begin(), departed.row(2).end()),
            (std::vector<char>{0, 0}));
  EXPECT_THROW(departed.record(0, 3), std::logic_error);
  // A restored state flags exactly the dead neighbors of every row.
  const std::vector<char> alive = {1, 0, 1, 0};
  departed.rebuild(alive);
  EXPECT_EQ(std::vector<char>(departed.row(0).begin(), departed.row(0).end()),
            (std::vector<char>{1}));
  EXPECT_EQ(std::vector<char>(departed.row(2).begin(), departed.row(2).end()),
            (std::vector<char>{1, 1}));
  departed.reset(path);
  EXPECT_EQ(std::vector<char>(departed.row(2).begin(), departed.row(2).end()),
            (std::vector<char>{0, 0}));
}

}  // namespace
}  // namespace dsnd
