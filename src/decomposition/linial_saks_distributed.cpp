#include "decomposition/linial_saks_distributed.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "decomposition/departed_neighbors.hpp"
#include "simulator/engine.hpp"
#include "support/assert.hpp"
#include "support/distributions.hpp"
#include "support/per_worker.hpp"
#include "support/rng.hpp"

namespace dsnd {

namespace {

constexpr std::uint64_t kTagEntry = 1;
constexpr std::uint64_t kTagLeave = 2;

struct LsEntry {
  VertexId id = -1;
  std::int32_t radius = 0;
  std::int32_t dist = 0;

  std::int32_t remaining() const { return radius - dist; }
};

class LinialSaksProtocol final : public Protocol {
 public:
  LinialSaksProtocol(std::uint64_t seed, std::int32_t k, double p)
      : seed_(seed), k_(k), p_(p) {}

  void begin(const Graph& g) override {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    graph_ = &g;
    alive_.assign(n, 1);
    departed_.reset(g);
    frontier_.assign(n, {});
    chosen_center_.assign(n, -1);
    chosen_phase_.assign(n, -1);
    accum_.reset(1);
  }

  void begin_workers(unsigned workers) override { accum_.reset(workers); }

  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    const auto vi = static_cast<std::size_t>(v);
    if (!alive_[vi]) return;
    const auto phase_len = static_cast<std::size_t>(k_) + 1;
    const auto phase = static_cast<std::int32_t>(round / phase_len);
    const auto step = static_cast<std::int32_t>(round % phase_len);

    Accum& accum = accum_[out.worker()];
    // Leaves arrive at the next phase's step 0: record them first, so
    // this vertex never floods a neighbor that has already left.
    for (const MessageView& msg : inbox) {
      if (!msg.words().empty() && msg.words()[0] == kTagLeave) {
        departed_.record(v, msg.from);
      }
    }
    if (step == 0) {
      accum.phases_used = std::max(accum.phases_used, phase + 1);
      // Identical stream to linial_saks_decomposition.
      Xoshiro256ss rng(stream_seed(seed_,
                                   static_cast<std::uint64_t>(phase) + 1,
                                   static_cast<std::uint64_t>(v) + 1));
      const std::int32_t r = sample_truncated_geometric(rng, p_, k_ - 1);
      accum.max_radius = std::max(accum.max_radius, r);
      frontier_[vi].clear();
      frontier_[vi].push_back(LsEntry{v, r, 0});
      forward(v, LsEntry{v, r, 0}, out);
      // Quiet flooding steps run on inbox arrivals; the deciding step
      // must run even if nothing arrived.
      out.wake_self_in(static_cast<std::size_t>(k_));
      return;
    }

    for (const MessageView& msg : inbox) {
      const std::span<const std::uint64_t> words = msg.words();
      if (words.empty() || words[0] != kTagEntry) continue;
      DSND_CHECK(words.size() == 4, "malformed LS entry message");
      LsEntry entry;
      entry.id = static_cast<VertexId>(words[1]);
      entry.radius = static_cast<std::int32_t>(words[2]);
      entry.dist = static_cast<std::int32_t>(words[3]);
      if (insert(vi, entry) && step < k_) forward(v, entry, out);
    }

    if (step < k_) return;

    // Deciding step: the frontier's first entry is the min-id broadcast
    // that reached this vertex; retained iff strictly inside its radius.
    DSND_CHECK(!frontier_[vi].empty(), "own broadcast must be present");
    const LsEntry winner = frontier_[vi].front();
    if (winner.dist < winner.radius) {
      chosen_center_[vi] = winner.id;
      chosen_phase_[vi] = phase;
      alive_[vi] = 0;
      ++accum.carved;
      out.send_to_all_neighbors({kTagLeave}, departed_.row(v));
    } else {
      // Survivors sample again at the next phase's step 0.
      out.wake_self_in(1);
    }
  }

  bool finished() const override { return remaining() == 0; }

  CarveResult build_result() const {
    CarveResult result;
    const auto n = static_cast<std::size_t>(graph_->num_vertices());
    const std::int32_t phases_used = accum_.fold(
        0, [](std::int32_t acc, const Accum& a) {
          return std::max(acc, a.phases_used);
        });
    result.clustering = Clustering(graph_->num_vertices());
    result.phases_used = phases_used;
    result.max_sampled_radius = static_cast<double>(accum_.fold(
        0, [](std::int32_t acc, const Accum& a) {
          return std::max(acc, a.max_radius);
        }));
    result.rounds = static_cast<std::int64_t>(phases_used) * (k_ + 1);
    result.carved_per_phase.assign(
        static_cast<std::size_t>(phases_used), 0);
    // One bucketing pass keeps the deterministic (phase, vertex-id)
    // cluster order at O(n + phases) instead of O(n * phases).
    std::vector<std::vector<VertexId>> members_per_phase(
        static_cast<std::size_t>(phases_used));
    for (std::size_t v = 0; v < n; ++v) {
      if (chosen_phase_[v] >= 0) {
        members_per_phase[static_cast<std::size_t>(chosen_phase_[v])]
            .push_back(static_cast<VertexId>(v));
      }
    }
    std::vector<ClusterId> cluster_of_center(n, kNoCluster);
    for (std::int32_t phase = 0; phase < phases_used; ++phase) {
      for (const VertexId v : members_per_phase[static_cast<std::size_t>(
               phase)]) {
        ++result.carved_per_phase[static_cast<std::size_t>(phase)];
        const auto center = static_cast<std::size_t>(
            chosen_center_[static_cast<std::size_t>(v)]);
        if (cluster_of_center[center] == kNoCluster ||
            result.clustering.color_of(cluster_of_center[center]) !=
                phase) {
          cluster_of_center[center] = result.clustering.add_cluster(
              static_cast<VertexId>(center), phase);
        }
        result.clustering.assign(v, cluster_of_center[center]);
      }
    }
    return result;
  }

  VertexId remaining() const {
    const VertexId carved = accum_.fold(
        VertexId{0},
        [](VertexId acc, const Accum& a) { return acc + a.carved; });
    return graph_->num_vertices() - carved;
  }
  std::size_t max_frontier_size() const {
    std::size_t result = 0;
    for (const auto& f : frontier_) result = std::max(result, f.size());
    return result;
  }

 private:
  /// Pareto insert: keep ids ascending with strictly increasing remaining
  /// range. Returns true if the entry was inserted (needs forwarding).
  bool insert(std::size_t vi, const LsEntry& entry) {
    auto& frontier = frontier_[vi];
    // Position of the first kept entry with id >= entry.id.
    std::size_t pos = 0;
    while (pos < frontier.size() && frontier[pos].id < entry.id) ++pos;
    if (pos < frontier.size() && frontier[pos].id == entry.id) {
      // Synchronous flooding delivers each id first along a shortest
      // path, so a duplicate can never improve the stored distance.
      return false;
    }
    // Dominated by a smaller id with at least as much range?
    if (pos > 0 && frontier[pos - 1].remaining() >= entry.remaining()) {
      return false;
    }
    // Evict larger ids the new entry dominates.
    std::size_t last = pos;
    while (last < frontier.size() &&
           frontier[last].remaining() <= entry.remaining()) {
      ++last;
    }
    frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(pos),
                   frontier.begin() + static_cast<std::ptrdiff_t>(last));
    frontier.insert(frontier.begin() + static_cast<std::ptrdiff_t>(pos),
                    entry);
    return true;
  }

  /// Floods the entry to every neighbor not known to have left.
  void forward(VertexId v, const LsEntry& entry, Outbox& out) {
    if (entry.dist + 1 > entry.radius) return;  // range exhausted
    out.send_to_all_neighbors({kTagEntry, static_cast<std::uint64_t>(entry.id),
                               static_cast<std::uint64_t>(entry.radius),
                               static_cast<std::uint64_t>(entry.dist + 1)},
                              departed_.row(v));
  }

  /// Per-worker aggregate slice (support/per_worker.hpp): monotone
  /// fields folded on the driving thread, no cross-core contention.
  struct Accum {
    VertexId carved = 0;
    std::int32_t phases_used = 0;
    std::int32_t max_radius = 0;
  };

  const std::uint64_t seed_;
  const std::int32_t k_;
  const double p_;
  const Graph* graph_ = nullptr;
  std::vector<char> alive_;
  DepartedNeighbors departed_;  // leaves received, per CSR position
  std::vector<std::vector<LsEntry>> frontier_;
  std::vector<VertexId> chosen_center_;
  std::vector<std::int32_t> chosen_phase_;
  PerWorker<Accum> accum_;
};

}  // namespace

DistributedLsRun linial_saks_distributed(const Graph& g,
                                         const LinialSaksOptions& options,
                                         const EngineOptions& engine_options) {
  DSND_REQUIRE(g.num_vertices() >= 1, "graph must be nonempty");
  const VertexId n = g.num_vertices();
  const std::int32_t k = std::max(resolve_k(n, options.k), 2);
  const double p = linial_saks_p(n, k);
  const auto lambda = static_cast<std::int32_t>(std::ceil(
      std::pow(static_cast<double>(n), 1.0 / k) *
          std::log(static_cast<double>(std::max<VertexId>(n, 2))) +
      1.0));

  LinialSaksProtocol protocol(options.seed, k, p);
  SyncEngine engine(g, engine_options);
  const std::size_t max_rounds =
      (static_cast<std::size_t>(lambda) * 16 +
       static_cast<std::size_t>(n) + 64) *
      (static_cast<std::size_t>(k) + 1);
  DistributedLsRun result;
  result.sim = engine.run(protocol, max_rounds);
  DSND_CHECK(protocol.remaining() == 0,
             "distributed Linial–Saks failed to exhaust the graph");
  result.run.carve = protocol.build_result();
  result.run.carve.target_phases = lambda;
  result.run.carve.exhausted_within_target =
      result.run.carve.phases_used <= lambda;
  result.run.k = static_cast<double>(k);
  result.run.c = 1.0;
  result.run.bounds.strong_diameter = 2.0 * k - 2.0;  // weak bound
  result.run.bounds.colors = static_cast<double>(lambda);
  result.run.bounds.rounds = static_cast<double>(lambda) * k;
  result.run.bounds.success_probability = 0.5;
  return result;
}

}  // namespace dsnd
