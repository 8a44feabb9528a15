#include "simulator/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "decomposition/elkin_neiman_distributed.hpp"
#include "graph/generators.hpp"

namespace dsnd {
namespace {

/// Floods a token from vertex 0; records the round each vertex first saw
/// it. Verifies synchronous one-hop-per-round semantics. Fully
/// message-driven, so it works under active scheduling: round 0 runs
/// every vertex (seeding the flood) and afterwards only reached vertices
/// execute. The unseen count is atomic: vertices on different workers
/// decrement it in the same round.
class FloodProtocol final : public Protocol {
 public:
  void begin(const Graph& g) override {
    seen_round_.assign(static_cast<std::size_t>(g.num_vertices()), -1);
    pending_.assign(static_cast<std::size_t>(g.num_vertices()), 0);
    unseen_ = g.num_vertices();
    if (g.num_vertices() > 0) {
      seen_round_[0] = 0;
      pending_[0] = 1;
      --unseen_;
    }
  }

  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    const auto vi = static_cast<std::size_t>(v);
    if (seen_round_[vi] == -1 && !inbox.empty()) {
      seen_round_[vi] = static_cast<std::int32_t>(round);
      pending_[vi] = 1;
      --unseen_;
    }
    if (pending_[vi]) {
      out.send_to_all_neighbors({1});
      pending_[vi] = 0;
    }
  }

  bool finished() const override { return unseen_ == 0; }

  const std::vector<std::int32_t>& seen_round() const { return seen_round_; }

 private:
  std::vector<std::int32_t> seen_round_;
  std::vector<char> pending_;
  std::atomic<VertexId> unseen_{0};
};

TEST(Simulator, FloodTakesDistanceRounds) {
  const Graph g = make_path(6);
  FloodProtocol protocol;
  SyncEngine engine(g);
  engine.run(protocol, 100);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(protocol.seen_round()[static_cast<std::size_t>(v)], v);
  }
}

TEST(Simulator, MetricsCountMessages) {
  const Graph g = make_path(3);  // edges: 0-1, 1-2
  FloodProtocol protocol;
  SyncEngine engine(g);
  const SimMetrics metrics = engine.run(protocol, 100);
  // Round 0: v0 sends 1. Round 1: v1 sends 2. Round 2: v2 sends 1, and the
  // finished() predicate fires after that round.
  EXPECT_EQ(metrics.rounds, 3u);
  EXPECT_EQ(metrics.messages, 4u);
  EXPECT_EQ(metrics.words, 4u);
  EXPECT_EQ(metrics.max_message_words, 1u);
  EXPECT_EQ(metrics.messages_per_round.size(), metrics.rounds);
}

TEST(Simulator, RoundCapStopsRun) {
  const Graph g = make_path(50);
  FloodProtocol protocol;
  SyncEngine engine(g);
  const SimMetrics metrics = engine.run(protocol, 5);
  EXPECT_EQ(metrics.rounds, 5u);
  EXPECT_EQ(protocol.seen_round()[10], -1);  // flood did not get there
}

/// A protocol that tries to message a non-neighbor.
class IllegalSendProtocol final : public Protocol {
 public:
  void begin(const Graph&) override {}
  void on_round(VertexId v, std::size_t, std::span<const MessageView>,
                Outbox& out) override {
    if (v == 0) out.send(2, {42});  // 0 and 2 are not adjacent in a path
  }
  bool finished() const override { return false; }
};

TEST(Simulator, RejectsSendToNonNeighbor) {
  const Graph g = make_path(3);
  IllegalSendProtocol protocol;
  SyncEngine engine(g);
  EXPECT_THROW(engine.run(protocol, 2), std::invalid_argument);
}

/// Sends to neighbors in non-monotone order: exercises the Outbox's
/// binary-search fallback behind the in-order cursor fast path.
class OutOfOrderSendProtocol final : public Protocol {
 public:
  void begin(const Graph&) override { received_ = 0; }
  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    if (v == 0 && round == 0) {
      out.send(3, {3});
      out.send(1, {1});  // backwards: cursor must repark
      out.send(1, {10});  // repeat to the same neighbor
      out.send(2, {2});
      EXPECT_THROW(out.send(0, {0}), std::invalid_argument);  // self
    }
    received_ += inbox.size();
  }
  bool finished() const override { return false; }
  std::size_t received() const { return received_; }

 private:
  std::size_t received_ = 0;
};

TEST(Simulator, OutOfOrderSendsAreValidatedAndDelivered) {
  const Graph g = make_star(4);  // hub 0, leaves 1..3
  OutOfOrderSendProtocol protocol;
  SyncEngine engine(g);
  const SimMetrics metrics = engine.run(protocol, 2);
  EXPECT_EQ(metrics.messages, 4u);
  EXPECT_EQ(protocol.received(), 4u);
}

/// Ping-pong between two vertices; checks delivery latency of exactly one
/// round and that from-fields are correct.
class PingPongProtocol final : public Protocol {
 public:
  void begin(const Graph&) override {
    received_.clear();
    sent_first_ = false;
  }

  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    if (v == 0 && round == 0 && !sent_first_) {
      out.send(1, {100});
      sent_first_ = true;
    }
    for (const MessageView& m : inbox) {
      received_.push_back({v, static_cast<VertexId>(m.from),
                           static_cast<std::int64_t>(round), m.words()[0]});
      if (m.words()[0] < 103) out.send(m.from, {m.words()[0] + 1});
    }
  }

  bool finished() const override { return received_.size() >= 4; }

  struct Event {
    VertexId at;
    VertexId from;
    std::int64_t round;
    std::uint64_t value;
  };
  const std::vector<Event>& received() const { return received_; }

 private:
  std::vector<Event> received_;
  bool sent_first_ = false;
};

TEST(Simulator, PingPongAlternates) {
  const Graph g = make_path(2);
  PingPongProtocol protocol;
  SyncEngine engine(g);
  engine.run(protocol, 20);
  const auto& events = protocol.received();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].at, 1);
  EXPECT_EQ(events[0].from, 0);
  EXPECT_EQ(events[0].round, 1);
  EXPECT_EQ(events[0].value, 100u);
  EXPECT_EQ(events[1].at, 0);
  EXPECT_EQ(events[1].value, 101u);
  EXPECT_EQ(events[3].value, 103u);
}

/// Vertex 0 emits a pulse every kPeriod rounds via self-wakes; everyone
/// else only forwards pulses one hop when one arrives. Long quiet
/// phases: most vertices are idle in most rounds.
class PulseProtocol final : public Protocol {
 public:
  static constexpr std::size_t kPeriod = 8;

  void begin(const Graph& g) override {
    n_ = g.num_vertices();
    forwarded_.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  }

  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    if (v == 0) {
      if (round % kPeriod == 0) {
        out.send(1, {round});
        out.wake_self_in(kPeriod);
      }
      return;
    }
    for (const MessageView& m : inbox) {
      if (m.from == v - 1 && v + 1 < n_) {
        out.send(v + 1, {m.words()[0]});
      }
      ++forwarded_[static_cast<std::size_t>(v)];
    }
  }

  bool finished() const override { return false; }

  std::uint64_t total_forwarded() const {
    std::uint64_t sum = 0;
    for (const char c : forwarded_) sum += static_cast<std::uint64_t>(c);
    return sum;
  }

 private:
  VertexId n_ = 0;
  std::vector<char> forwarded_;
};

TEST(Simulator, ActiveSchedulingSkipsQuietVertices) {
  const Graph g = make_path(64);
  const std::size_t rounds = 40;

  PulseProtocol scheduled;
  SyncEngine scheduled_engine(g);  // active scheduling is the default
  const SimMetrics on = scheduled_engine.run(scheduled, rounds);

  PulseProtocol unscheduled;
  EngineOptions off_options;
  off_options.active_scheduling = false;
  SyncEngine unscheduled_engine(g, off_options);
  const SimMetrics off = unscheduled_engine.run(unscheduled, rounds);

  // Identical protocol behavior...
  EXPECT_EQ(on.rounds, off.rounds);
  EXPECT_EQ(on.messages, off.messages);
  EXPECT_EQ(on.messages_per_round, off.messages_per_round);
  EXPECT_EQ(scheduled.total_forwarded(), unscheduled.total_forwarded());
  // ...but the scheduled engine only ran the vertices that had work.
  EXPECT_EQ(off.vertex_activations, 64u * rounds);
  EXPECT_LT(on.vertex_activations, off.vertex_activations / 4);
}

TEST(Simulator, QuiescenceStopsScheduledRunEarly) {
  // One message at round 0, then silence with no wakes pending: the
  // scheduled engine stops once nothing can ever change again, while the
  // unscheduled engine runs to the cap. Both report exact per-round
  // message counts with quiet rounds as explicit zeros.
  class OneShot final : public Protocol {
   public:
    void begin(const Graph&) override {}
    void on_round(VertexId v, std::size_t round,
                  std::span<const MessageView>, Outbox& out) override {
      if (v == 0 && round == 0) out.send(1, {7});
    }
    bool finished() const override { return false; }
  };
  const Graph g = make_path(3);

  OneShot scheduled;
  SyncEngine scheduled_engine(g);
  const SimMetrics on = scheduled_engine.run(scheduled, 6);
  // Round 0 sends, round 1 delivers, then quiescence.
  EXPECT_EQ(on.rounds, 2u);
  EXPECT_EQ(on.messages_per_round,
            (std::vector<std::uint64_t>{1, 0}));

  OneShot unscheduled;
  EngineOptions off_options;
  off_options.active_scheduling = false;
  SyncEngine unscheduled_engine(g, off_options);
  const SimMetrics off = unscheduled_engine.run(unscheduled, 6);
  EXPECT_EQ(off.rounds, 6u);
  EXPECT_EQ(off.messages_per_round,
            (std::vector<std::uint64_t>{1, 0, 0, 0, 0, 0}));
  EXPECT_EQ(off.messages_per_round.size(), off.rounds);
}

TEST(Simulator, WakeSelfRequiresPositiveDelay) {
  class BadWake final : public Protocol {
   public:
    void begin(const Graph&) override {}
    void on_round(VertexId v, std::size_t, std::span<const MessageView>,
                  Outbox& out) override {
      if (v == 0) out.wake_self_in(0);
    }
    bool finished() const override { return false; }
  };
  const Graph g = make_path(2);
  BadWake protocol;
  SyncEngine engine(g);
  EXPECT_THROW(engine.run(protocol, 2), std::invalid_argument);
}

/// Drives the wake calendar with no messages at all: every activation
/// after round 0 is a self-wake. At round 0 each vertex stages two wakes
/// from kDelays, which straddle the initial 64-slot ring (63, 64, 65) and
/// grow it twice within that round's collect (to 128, then 1024). At its
/// first wake each vertex stages one follow-up from kFollowUps, some of
/// which land past round 1023 and so wrap around the 1024-slot ring. In
/// round 1000 every vertex that runs stages a 1500-round wake, which
/// grows the ring to 2048 while those wrapped wakes are pending: each
/// must move to the slot of its own round. Each vertex records the
/// rounds it ran and the rounds it asked for.
class WakeCalendarProtocol final : public Protocol {
 public:
  static constexpr std::size_t kDelays[] = {1, 63, 64, 65, 1000};
  static constexpr std::size_t kFollowUps[] = {1, 65, 1000};
  static constexpr std::size_t kGrowRound = 1000;
  static constexpr std::size_t kGrowDelay = 1500;

  void begin(const Graph& g) override {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    ran_.assign(n, {});
    asked_.assign(n, {0});
  }

  void on_round(VertexId v, std::size_t round, std::span<const MessageView>,
                Outbox& out) override {
    const auto vi = static_cast<std::size_t>(v);
    ran_[vi].push_back(round);
    if (round == 0) {
      wake(vi, round, kDelays[vi % 5], out);
      wake(vi, round, kDelays[(vi + 2) % 5], out);
    } else if (ran_[vi].size() == 2) {
      wake(vi, round, kFollowUps[vi % 3], out);
    }
    if (round == kGrowRound) wake(vi, round, kGrowDelay, out);
  }

  bool finished() const override { return false; }

  const std::vector<std::size_t>& ran(std::size_t v) const { return ran_[v]; }

  /// The sorted distinct rounds vertex v asked to run in, round 0 included.
  std::vector<std::size_t> asked(std::size_t v) const {
    std::vector<std::size_t> rounds = asked_[v];
    std::sort(rounds.begin(), rounds.end());
    rounds.erase(std::unique(rounds.begin(), rounds.end()), rounds.end());
    return rounds;
  }

 private:
  void wake(std::size_t v, std::size_t round, std::size_t delay,
            Outbox& out) {
    out.wake_self_in(delay);
    asked_[v].push_back(round + delay);
  }

  std::vector<std::vector<std::size_t>> ran_;
  std::vector<std::vector<std::size_t>> asked_;
};

TEST(Simulator, WakesFireExactlyAtTheirRoundAcrossCalendarGrowth) {
  const Graph g = make_path(40);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    WakeCalendarProtocol protocol;
    EngineOptions options;
    options.threads = threads;
    SyncEngine engine(g, options);
    const SimMetrics metrics = engine.run(protocol, 5000);
    EXPECT_EQ(metrics.status, RunStatus::kQuiescent);
    std::uint64_t runs = 0;
    std::size_t last = 0;
    for (std::size_t v = 0; v < 40; ++v) {
      EXPECT_EQ(protocol.ran(v), protocol.asked(v)) << "v=" << v;
      runs += protocol.ran(v).size();
      last = std::max(last, protocol.ran(v).back());
    }
    EXPECT_EQ(metrics.vertex_activations, runs);
    EXPECT_EQ(last, WakeCalendarProtocol::kGrowRound +
                        WakeCalendarProtocol::kGrowDelay);
    EXPECT_EQ(metrics.rounds, last + 1);
  }
}

TEST(Simulator, WakeSelfRefusesADelayOf2To32Rounds) {
  class FarWake final : public Protocol {
   public:
    void begin(const Graph&) override {}
    void on_round(VertexId v, std::size_t, std::span<const MessageView>,
                  Outbox& out) override {
      if (v == 0) out.wake_self_in(std::size_t{1} << 32);
    }
    bool finished() const override { return false; }
  };
  const Graph g = make_path(2);
  FarWake protocol;
  SyncEngine engine(g);
  try {
    engine.run(protocol, 2);
    FAIL() << "a 2^32-round wake was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("delay below 2^32"),
              std::string::npos)
        << e.what();
  }
}

/// Same seed must give a bit-identical clustering and identical message
/// metrics for every engine configuration: scheduling on/off, one
/// worker or many. This is the contract that makes the scheduling and
/// parallelism pure optimizations.
TEST(Simulator, DeterministicAcrossSchedulingAndThreads) {
  const Graph g = make_gnp(400, 8.0 / 399.0, 11);
  ElkinNeimanOptions options;
  options.k = 4;
  options.seed = 99;

  EngineOptions baseline;  // scheduled, serial
  const DistributedRun reference =
      elkin_neiman_distributed(g, options, baseline);

  std::vector<EngineOptions> variants;
  EngineOptions unscheduled;
  unscheduled.active_scheduling = false;
  variants.push_back(unscheduled);
  EngineOptions two_threads;
  two_threads.threads = 2;
  variants.push_back(two_threads);
  EngineOptions hardware_threads;
  hardware_threads.threads = 0;
  variants.push_back(hardware_threads);
  EngineOptions seven_threads;  // does not divide n: uneven shards
  seven_threads.threads = 7;
  variants.push_back(seven_threads);
  EngineOptions unscheduled_parallel;
  unscheduled_parallel.active_scheduling = false;
  unscheduled_parallel.threads = 3;
  variants.push_back(unscheduled_parallel);

  for (const EngineOptions& variant : variants) {
    const DistributedRun run = elkin_neiman_distributed(g, options, variant);
    EXPECT_EQ(run.sim.rounds, reference.sim.rounds);
    EXPECT_EQ(run.sim.messages, reference.sim.messages);
    EXPECT_EQ(run.sim.words, reference.sim.words);
    EXPECT_EQ(run.sim.max_message_words, reference.sim.max_message_words);
    EXPECT_EQ(run.sim.messages_per_round, reference.sim.messages_per_round);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(run.run.clustering().cluster_of(v),
                reference.run.clustering().cluster_of(v));
    }
  }

  // Scheduling is the whole point: the default configuration must do
  // strictly less vertex work than run-every-vertex mode.
  const DistributedRun every_vertex =
      elkin_neiman_distributed(g, options, unscheduled);
  EXPECT_LT(reference.sim.vertex_activations,
            every_vertex.sim.vertex_activations);
}

/// Every vertex checks that its worker index stays inside the count the
/// engine announced via begin_workers, and that vertices are executed by
/// the worker owning their shard (contiguous ranges) whenever the round
/// runs parallel.
class WorkerIndexProtocol final : public Protocol {
 public:
  void begin(const Graph& g) override {
    n_ = g.num_vertices();
    announced_ = 0;
  }
  void begin_workers(unsigned workers) override { announced_ = workers; }
  void on_round(VertexId v, std::size_t, std::span<const MessageView>,
                Outbox& out) override {
    // Recorded, not EXPECTed: on_round may run on pool threads and gtest
    // assertions are only thread-safe on the main thread.
    if (announced_ == 0 || out.worker() >= announced_) {
      violation_.store(true, std::memory_order_relaxed);
    }
    out.send_to_all_neighbors({static_cast<std::uint64_t>(v)});
  }
  bool finished() const override { return false; }
  bool needs_spontaneous_rounds() const override { return true; }
  unsigned announced() const { return announced_; }
  bool violated() const { return violation_.load(); }

 private:
  VertexId n_ = 0;
  unsigned announced_ = 0;
  std::atomic<bool> violation_{false};
};

TEST(Simulator, BeginWorkersAnnouncesResolvedCount) {
  const Graph g = make_path(40);
  for (const unsigned threads : {1u, 3u, 7u}) {
    WorkerIndexProtocol protocol;
    EngineOptions options;
    options.threads = threads;
    SyncEngine engine(g, options);
    engine.run(protocol, 4);
    EXPECT_EQ(protocol.announced(), threads);
    EXPECT_EQ(engine.workers(), threads);
    EXPECT_FALSE(protocol.violated());
  }
  // More threads than vertices: the engine clamps the shard count.
  WorkerIndexProtocol protocol;
  EngineOptions options;
  options.threads = 64;
  const Graph tiny = make_path(5);
  SyncEngine engine(tiny, options);
  engine.run(protocol, 2);
  EXPECT_EQ(protocol.announced(), 5u);
  EXPECT_FALSE(protocol.violated());
}

TEST(Simulator, FloodIdenticalAcrossShardCounts) {
  const Graph g = make_gnp(300, 6.0 / 299.0, 17);
  FloodProtocol reference;
  SyncEngine serial(g);
  const SimMetrics base = serial.run(reference, 100);
  for (const unsigned threads : {2u, 5u, 8u}) {
    FloodProtocol protocol;
    EngineOptions options;
    options.threads = threads;
    SyncEngine engine(g, options);
    const SimMetrics metrics = engine.run(protocol, 100);
    EXPECT_EQ(metrics.rounds, base.rounds);
    EXPECT_EQ(metrics.messages, base.messages);
    EXPECT_EQ(metrics.messages_per_round, base.messages_per_round);
    EXPECT_EQ(protocol.seen_round(), reference.seen_round());
  }
}

/// Payload lifetime across the words-only double buffer. Every vertex
/// sends every round, and its payload grows by one word per round, so
/// the live arenas keep reallocating while the receivers of last round's
/// payloads still read them. Word 0 is the send round and word i >= 1 is
/// payload_word(from, sent, i). A receiver checks every word it got
/// before and again after staging its own sends: a bucket that reused
/// the arena its inbox views alias would overwrite them in between.
class GrowingPayloadProtocol final : public Protocol {
 public:
  static std::uint64_t payload_word(VertexId from, std::uint64_t sent,
                                    std::size_t i) {
    return (static_cast<std::uint64_t>(from) << 40) ^ (sent << 16) ^ i ^
           0x9e3779b97f4a7c15ULL;
  }

  void begin(const Graph& g) override {
    graph_ = &g;
    const auto n = static_cast<std::size_t>(g.num_vertices());
    received_.assign(n, 0);
    corrupt_.assign(n, 0);
    late_.assign(n, 0);
    digest_.assign(n, 0);
  }

  void on_round(VertexId v, std::size_t round,
                std::span<const MessageView> inbox, Outbox& out) override {
    const auto vi = static_cast<std::size_t>(v);
    check(vi, round, inbox, /*tally=*/false);
    std::vector<std::uint64_t> payload(round + 2);
    payload[0] = round;
    for (std::size_t i = 1; i < payload.size(); ++i) {
      payload[i] = payload_word(v, round, i);
    }
    // Both send paths: one arena copy per destination shard for even
    // vertices, one copy per message for odd ones.
    if (v % 2 == 0) {
      out.send_to_all_neighbors(payload);
    } else {
      for (const VertexId to : graph_->neighbors(v)) out.send(to, payload);
    }
    check(vi, round, inbox, /*tally=*/true);
  }

  bool finished() const override { return false; }
  // Delayed copies can leave an inbox empty; every vertex must still send.
  bool needs_spontaneous_rounds() const override { return true; }

  static std::uint64_t total(const std::vector<std::uint64_t>& per_vertex) {
    std::uint64_t sum = 0;
    for (const std::uint64_t x : per_vertex) sum += x;
    return sum;
  }
  std::uint64_t received() const { return total(received_); }
  std::uint64_t corrupt() const { return total(corrupt_); }
  std::uint64_t late() const { return total(late_); }
  const std::vector<std::uint64_t>& digest() const { return digest_; }

 private:
  // Per-vertex tallies: on_round runs on pool threads, and each vertex
  // writes only its own slot.
  void check(std::size_t vi, std::size_t round,
             std::span<const MessageView> inbox, bool tally) {
    for (const MessageView& msg : inbox) {
      const std::span<const std::uint64_t> words = msg.words();
      bool intact = words.size() >= 2 && words[0] < round &&
                    words.size() == words[0] + 2;
      for (std::size_t i = 1; intact && i < words.size(); ++i) {
        intact = words[i] == payload_word(msg.from, words[0], i);
      }
      if (!intact) ++corrupt_[vi];
      if (!tally) continue;
      ++received_[vi];
      if (intact && words[0] + 1 != round) ++late_[vi];
      for (const std::uint64_t w : words) digest_[vi] = digest_[vi] * 31 + w;
    }
  }

  const Graph* graph_ = nullptr;
  std::vector<std::uint64_t> received_;
  std::vector<std::uint64_t> corrupt_;
  std::vector<std::uint64_t> late_;
  std::vector<std::uint64_t> digest_;
};

TEST(Simulator, InboxPayloadsOutliveTheNextRoundsSends) {
  // Small enough that every arena stays a heap block rather than a
  // private mapping: a view into a released arena then reads stale words
  // (caught below) instead of faulting.
  const Graph g = make_gnp(64, 4.0 / 63.0, 5);
  constexpr std::size_t kRounds = 32;
  FaultPlan plan;
  plan.seed = 7;
  plan.delay_rate = 0.3;
  plan.max_delay_rounds = 3;
  plan.duplicate_rate = 0.2;
  for (const bool faulty : {false, true}) {
    std::vector<std::uint64_t> reference;
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(faulty ? "faulty" : "reliable") +
                   " threads=" + std::to_string(threads));
      FaultyTransport transport(plan);
      EngineOptions options;
      options.threads = threads;
      if (faulty) options.transport = &transport;
      GrowingPayloadProtocol protocol;
      SyncEngine engine(g, options);
      const SimMetrics metrics = engine.run(protocol, kRounds);
      ASSERT_EQ(metrics.rounds, kRounds);
      EXPECT_EQ(protocol.corrupt(), 0u);
      // Every delivery but the last round's was read by a receiver.
      EXPECT_EQ(protocol.received(),
                metrics.messages - metrics.messages_per_round.back());
      EXPECT_GT(protocol.received(), 0u);
      if (faulty) {
        EXPECT_GT(protocol.late(), 0u);
        EXPECT_GT(metrics.faults.duplicated, 0u);
      } else {
        EXPECT_EQ(protocol.late(), 0u);
      }
      if (reference.empty()) {
        reference = protocol.digest();
      } else {
        EXPECT_EQ(protocol.digest(), reference);
      }
    }
  }
}

TEST(Simulator, ArenaOffsetRefusesAnArenaPassing32Bits) {
  constexpr std::size_t kLimit = detail::kArenaWordLimit;
  EXPECT_EQ(detail::arena_offset(0, 4), 0u);
  EXPECT_EQ(detail::arena_offset(kLimit - 5, 4), kLimit - 5);
  EXPECT_THROW(detail::arena_offset(kLimit - 4, 4), std::logic_error);
  EXPECT_THROW(detail::arena_offset(kLimit, 0), std::logic_error);
  EXPECT_THROW(detail::arena_offset(0, kLimit), std::logic_error);
}

TEST(SimMetrics, AveragesAndFormatting) {
  SimMetrics metrics;
  metrics.rounds = 3;
  metrics.messages = 3;
  metrics.words = 9;
  metrics.max_message_words = 5;
  metrics.messages_per_round = {2, 0, 1};
  EXPECT_DOUBLE_EQ(metrics.avg_messages_per_round(), 1.0);
  EXPECT_NE(metrics.to_string().find("messages=3"), std::string::npos);
  EXPECT_EQ(SimMetrics{}.avg_messages_per_round(), 0.0);
}

}  // namespace
}  // namespace dsnd
