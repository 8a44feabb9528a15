// chaos-gnp-5k: carves through the faulty relay. gnp-deg8 at n = 5000;
// each request is a Theorem 1 carve through run_schedule_distributed
// with its own seeded FaultyTransport, plus validation. The only
// workload that runs the faulty relay, the verify-and-recover loop and
// its checkpointing.
//
// The seeded requests inject duplicates only (rate 1e-4): the protocol's
// top-2 merge is idempotent, so duplicated messages never change the
// answer and no seeded request can fail. Drops and delays are left out
// of them because with drop, duplicate and delay rates of 1e-4 each
// about 0.7% of requests at this size (3.5% at n = 20k) end "ok" with a
// cluster that does not hold its center: the recovery loop accepts any
// clustering that is complete, properly colored and connected, so Claim
// 3's certificate is void while the status says ok. Which requests hit
// it depends on the seed, so it cannot sit in the seeded plan.
//
// Instead each round ends with one fixed request, the same in every run
// and independent of --seed, that drops, duplicates and delays at 1e-4
// each, rolls back once, and is then accepted with a centerless cluster.
// The benchmark's checker rejects it every time, so it is counted as a
// failed operation in every round (a constant 1 in kCarvesPerRound + 1),
// and it is what the traced run's recovery figures (rollbacks, replayed
// phases, injected faults) measure.
#include <memory>
#include <string>

#include "decomposition/elkin_neiman.hpp"
#include "graph/generators.hpp"
#include "simulator/transport.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dsnd;

constexpr VertexId kVertices = 5'000;
constexpr int kSetups = 5;
constexpr int kCarvesPerRound = 40;
constexpr double kFaultRate = 1e-4;
// The fixed request: graph make_gnp(5000, 8 / 4999, 7), carve seed 118,
// fault plan seed 5118.
constexpr std::uint64_t kFixedGraphSeed = 7;
constexpr std::uint64_t kFixedCarveSeed = 118;
constexpr std::uint64_t kFixedPlanSeed = 5118;

/// Counts what the engine hands to the exchange stage over every attempt
/// of a run. FaultyTransport wraps it, so it also sees the attempts the
/// recovery loop discards, which the returned SimMetrics (last attempt
/// only) leave out. Rounds are counted up to each attempt's last exchange.
class CountingTransport final : public Transport {
 public:
  void begin_run(const TransportGeometry& geometry) override {
    rounds_ += attempt_rounds_;
    attempt_rounds_ = 0;
    inner_.begin_run(geometry);
  }
  void exchange(std::size_t round,
                std::span<detail::SendStaging> staging) override {
    messages_ += detail::staged_message_count(staging);
    attempt_rounds_ = round + 1;
    inner_.exchange(round, staging);
  }
  std::span<const TransportSlice> delivery(unsigned s) const override {
    return inner_.delivery(s);
  }
  std::size_t pending() const override { return inner_.pending(); }

  std::uint64_t rounds() const { return rounds_ + attempt_rounds_; }
  std::uint64_t messages() const { return messages_; }

 private:
  ReliableTransport inner_;
  std::uint64_t rounds_ = 0;
  std::uint64_t attempt_rounds_ = 0;
  std::uint64_t messages_ = 0;
};

struct Request {
  std::uint64_t seed = 0;
  FaultPlan plan;
};

/// A seeded request: duplicates only.
Request seeded_request(std::uint64_t run_seed, Stream stream, int i) {
  Request request;
  request.seed = derive_seed(run_seed, stream, static_cast<std::uint64_t>(i));
  request.plan.seed = derive_seed(run_seed, Stream::kFaults,
                                  static_cast<std::uint64_t>(i) +
                                      (stream == Stream::kWarmup ? 1000u : 0u));
  request.plan.duplicate_rate = kFaultRate;
  return request;
}

Request fixed_request() {
  Request request;
  request.seed = kFixedCarveSeed;
  request.plan.seed = kFixedPlanSeed;
  request.plan.drop_rate = kFaultRate;
  request.plan.duplicate_rate = kFaultRate;
  request.plan.delay_rate = kFaultRate;
  request.plan.max_delay_rounds = 1;
  return request;
}

/// The carve alone; the end-to-end counts take every attempt's rounds and
/// messages from the counting transport.
CarveAnswer carve(const Graph& g, const CarveSchedule& schedule,
                  const Request& request) {
  CountingTransport counter;
  FaultyTransport faulty(request.plan, &counter);
  EngineOptions engine = one_worker();
  engine.transport = &faulty;
  CarveAnswer answer;
  answer.run = run_schedule_distributed(g, schedule, request.seed, engine);
  answer.rounds = static_cast<double>(counter.rounds());
  answer.messages = counter.messages();
  return answer;
}

std::string label(const Request& request) {
  return "chaos-gnp-5k carve seed " + std::to_string(request.seed);
}

bool same_output(const DistributedRun& a, const DistributedRun& b) {
  const Clustering& x = a.run.clustering();
  const Clustering& y = b.run.clustering();
  if (x.num_vertices() != y.num_vertices() ||
      x.num_clusters() != y.num_clusters() || a.sim.rounds != b.sim.rounds ||
      a.sim.messages != b.sim.messages || a.sim.words != b.sim.words) {
    return false;
  }
  for (VertexId v = 0; v < x.num_vertices(); ++v) {
    if (x.cluster_of(v) != y.cluster_of(v)) return false;
  }
  for (ClusterId c = 0; c < x.num_clusters(); ++c) {
    if (x.center_of(c) != y.center_of(c) || x.color_of(c) != y.color_of(c)) {
      return false;
    }
  }
  return true;
}

struct Instance {
  Graph graph;        // from --seed: the seeded requests run here
  Graph fixed_graph;  // the fixed request's graph, the same in every run
};

Graph gnp_deg8(std::uint64_t seed) {
  return make_gnp(kVertices, 8.0 / static_cast<double>(kVertices - 1), seed, 1);
}

}  // namespace

void run_chaos_gnp(const RunOptions& options, RunReport& report,
                   Watchdog& watchdog) {
  std::vector<Request> requests;
  for (int i = 0; i < kCarvesPerRound; ++i) {
    requests.push_back(seeded_request(options.seed, Stream::kCarve, i));
  }
  const Request fixed = fixed_request();
  const CarveSchedule schedule = theorem1_schedule(kVertices, 0, 4.0);

  EndToEnd e2e;
  Tracer tracer;
  Tracer* setup_tracer = options.trace ? &tracer : nullptr;
  std::unique_ptr<Instance> instance;
  for (int s = 0; s < (options.trace ? 1 : kSetups); ++s) {
    instance.reset();
    // Each set-up warms up on its own seed (see batch.cpp).
    const Request warmup = seeded_request(options.seed, Stream::kWarmup, s);
    Guarded guard(watchdog, 0, "chaos-gnp-5k set-up");
    const Timer timer;
    instance = std::make_unique<Instance>();
    {
      MaybeSpan span(setup_tracer, "graph.generate");
      instance->graph = gnp_deg8(derive_seed(options.seed, Stream::kGraph));
    }
    {
      MaybeSpan span(setup_tracer, "graph.generate");
      instance->fixed_graph = gnp_deg8(kFixedGraphSeed);
    }
    // One warm-up request per graph, both duplicate-only.
    CarveAnswer answers[2];
    const Graph* graphs[2] = {&instance->graph, &instance->fixed_graph};
    for (int w = 0; w < 2; ++w) {
      MaybeSpan span(setup_tracer, "warmup");
      answers[w] = carve(*graphs[w], schedule, warmup);
      validate(*graphs[w], answers[w]);
    }
    e2e.setup_s.push_back(timer.elapsed_seconds());
    for (int w = 0; w < 2; ++w) {
      DecompositionFacts facts;
      const Verdict verdict = judge_carve(*graphs[w], schedule, answers[w], facts);
      report.invariant(verdict.ok, label(warmup) + ": " + verdict.why);
    }
  }

  // Request i of a round: the seeded requests, then the fixed one.
  const auto request_of = [&](int i) -> std::pair<const Graph&, const Request&> {
    if (i < kCarvesPerRound) {
      return {instance->graph, requests[static_cast<std::size_t>(i)]};
    }
    return {instance->fixed_graph, fixed};
  };

  e2e.timed_s = timed_rounds(options.seconds, kCarvesPerRound + 1,
                             [&](int round, int i) {
    const auto [g, request] = request_of(i);
    CarveAnswer answer;
    double ms = 0.0;
    {
      Guarded guard(watchdog, 0, label(request));
      const Timer timer;
      answer = carve(g, schedule, request);
      validate(g, answer);
      ms = timer.elapsed_millis();
    }
    if (record_carve(report, label(request), g, schedule, answer,
                     round == 0 ? &e2e : nullptr)) {
      e2e.request_ms.push_back(ms);
    }
    return ms;
  });

  if (!options.trace) {
    e2e.emit(report);
    return;
  }

  LayerFigures figures;
  CarveTally tally;
  for (int i = 0; i <= kCarvesPerRound; ++i) {
    const auto [g, request] = request_of(i);
    Guarded guard(watchdog, 0, label(request));
    CarveAnswer answer;
    {
      Tracer::Scope request_span(tracer, "request", i);
      {
        Tracer::Scope span(tracer, "decomposition.faulted_carve", i);
        answer = carve(g, schedule, request);
      }
      Tracer::Scope span(tracer, "decomposition.validate", i);
      validate(g, answer);
    }
    record_carve(report, label(request), g, schedule, answer, nullptr);
    tally.add(answer.run.sim, answer.run.run.carve);
  }
  {
    // The relay's own cost: the first request's seed through a zero-fault
    // FaultyTransport against the same cold carve with no transport. The
    // outputs must be bit-identical, and so must a warm twin's.
    Guarded guard(watchdog, 0, "chaos-gnp-5k relay and warm carves");
    const Graph& g = instance->graph;
    const std::uint64_t seed = requests[0].seed;
    DistributedRun direct;
    DistributedRun relayed;
    {
      Tracer::Scope span(tracer, "decomposition.cold_carve");
      direct = run_schedule_distributed(g, schedule, seed, one_worker());
    }
    {
      FaultyTransport zero_faults(FaultPlan{});
      EngineOptions engine = one_worker();
      engine.transport = &zero_faults;
      Tracer::Scope span(tracer, "simulator.relayed_carve");
      relayed = run_schedule_distributed(g, schedule, seed, engine);
    }
    report.invariant(same_output(direct, relayed),
                     "a zero-fault relay changed the carve's output");

    std::unique_ptr<CarveContext> context;
    {
      Tracer::Scope span(tracer, "decomposition.context");
      context = std::make_unique<CarveContext>(g, one_worker());
    }
    (void)run_schedule_distributed(*context, schedule,
                                   derive_seed(options.seed, Stream::kWarmup));
    DistributedRun warm;
    {
      Tracer::Scope span(tracer, "decomposition.warm_carve");
      warm = run_schedule_distributed(*context, schedule, seed);
    }
    report.invariant(same_output(direct, warm),
                     "a warm carve differs from its cold twin");
  }

  figures.set("graph.generate_ms", median(tracer.self_ms("graph.generate")));
  figures.set("decomposition.context_ms",
              median(tracer.total_ms("decomposition.context")));
  figures.set("decomposition.cold_carve_ms",
              median(tracer.total_ms("decomposition.cold_carve")));
  figures.set("decomposition.warm_carve_ms",
              median(tracer.total_ms("decomposition.warm_carve")));
  figures.set("decomposition.validate_ms",
              median(tracer.self_ms("decomposition.validate")));
  figures.set("simulator.relay_overhead_ms",
              median(tracer.total_ms("simulator.relayed_carve")) -
                  median(tracer.total_ms("decomposition.cold_carve")));
  tally.emit(figures);
  figures.set("trace.overhead_pct",
              overhead_pct(median(tracer.total_ms("request")),
                           median(e2e.request_ms)));
  figures.emit(report);
  tracer.write_chrome_json(options.trace_path);
}

}  // namespace perfbench
