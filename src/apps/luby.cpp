#include "apps/luby.hpp"

#include <algorithm>
#include <vector>

#include "simulator/engine.hpp"
#include "support/assert.hpp"
#include "support/per_worker.hpp"
#include "support/rng.hpp"

namespace dsnd {

namespace {

constexpr std::uint64_t kTagPriority = 1;
constexpr std::uint64_t kTagIn = 2;

enum class NodeState : std::uint8_t { kUndecided, kIn, kOut };

class LubyProtocol final : public Protocol {
 public:
  explicit LubyProtocol(std::uint64_t seed) : seed_(seed) {}

  void begin(const Graph& g) override {
    graph_ = &g;
    const auto n = static_cast<std::size_t>(g.num_vertices());
    state_.assign(n, NodeState::kUndecided);
    priority_.assign(n, 0);
    accum_.reset(1);
  }

  void begin_workers(unsigned workers) override { accum_.reset(workers); }

  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    const auto vi = static_cast<std::size_t>(v);
    const auto step = static_cast<std::int32_t>(round % 3);
    const auto iteration = static_cast<std::int32_t>(round / 3);

    Accum& accum = accum_[out.worker()];
    if (step == 0) {
      if (state_[vi] != NodeState::kUndecided) return;
      accum.iterations = std::max(accum.iterations, iteration + 1);
      // Fresh random priority per iteration; ties broken by vertex id in
      // the comparison, so reuse across vertices is harmless.
      Xoshiro256ss rng(stream_seed(
          seed_, static_cast<std::uint64_t>(iteration) + 1,
          static_cast<std::uint64_t>(v) + 1));
      priority_[vi] = rng();
      out.send_to_all_neighbors(
          {kTagPriority, priority_[vi], static_cast<std::uint64_t>(v)});
      // The decision step must run even when no neighbor priority
      // arrives (isolated vertex, or all neighbors already decided).
      out.wake_self_in(1);
      return;
    }

    if (step == 1) {
      if (state_[vi] != NodeState::kUndecided) return;
      // Local maximum among undecided neighbors joins the MIS.
      bool wins = true;
      for (const MessageView& msg : inbox) {
        const std::span<const std::uint64_t> words = msg.words();
        if (words.empty() || words[0] != kTagPriority) continue;
        const std::uint64_t their_priority = words[1];
        const auto their_id = static_cast<VertexId>(words[2]);
        if (their_priority > priority_[vi] ||
            (their_priority == priority_[vi] && their_id > v)) {
          wins = false;
          break;
        }
      }
      if (wins) {
        state_[vi] = NodeState::kIn;
        ++accum.decided;
        out.send_to_all_neighbors({kTagIn});
      } else {
        // Still undecided: resample at the next iteration's step 0
        // (a kTagIn from a neighbor may decide this vertex at step 2
        // first; the stale wake is then a no-op).
        out.wake_self_in(2);
      }
      return;
    }

    // step == 2: neighbors of fresh IN vertices drop out. Since only
    // undecided vertices broadcast priorities, no explicit OUT
    // notification is needed for the next iteration's comparison.
    if (state_[vi] != NodeState::kUndecided) return;
    for (const MessageView& msg : inbox) {
      if (!msg.words().empty() && msg.words()[0] == kTagIn) {
        state_[vi] = NodeState::kOut;
        ++accum.decided;
        return;
      }
    }
  }

  bool finished() const override {
    const VertexId decided = accum_.fold(
        VertexId{0},
        [](VertexId acc, const Accum& a) { return acc + a.decided; });
    return decided == graph_->num_vertices();
  }

  std::vector<char> in_mis() const {
    std::vector<char> result(state_.size(), 0);
    for (std::size_t v = 0; v < state_.size(); ++v) {
      result[v] = state_[v] == NodeState::kIn ? 1 : 0;
    }
    return result;
  }

  std::int32_t iterations() const {
    return accum_.fold(0, [](std::int32_t acc, const Accum& a) {
      return std::max(acc, a.iterations);
    });
  }

 private:
  /// Per-worker aggregate slice (support/per_worker.hpp): monotone
  /// fields folded on the driving thread, no cross-core contention.
  struct Accum {
    VertexId decided = 0;
    std::int32_t iterations = 0;
  };

  const std::uint64_t seed_;
  const Graph* graph_ = nullptr;
  std::vector<NodeState> state_;
  std::vector<std::uint64_t> priority_;
  PerWorker<Accum> accum_;
};

}  // namespace

LubyResult luby_mis(const Graph& g, std::uint64_t seed) {
  DSND_REQUIRE(g.num_vertices() >= 1, "graph must be nonempty");
  LubyProtocol protocol(seed);
  SyncEngine engine(g);
  // Expected O(log n) iterations; the cap is far above that.
  const std::size_t max_rounds =
      3 * (64 + static_cast<std::size_t>(g.num_vertices()));
  LubyResult result;
  result.sim = engine.run(protocol, max_rounds);
  DSND_CHECK(protocol.finished(), "Luby's algorithm failed to terminate");
  result.in_mis = protocol.in_mis();
  result.iterations = protocol.iterations();
  return result;
}

}  // namespace dsnd
