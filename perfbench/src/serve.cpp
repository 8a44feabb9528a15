// serve-mix: a closed loop of two client threads against one
// DecompositionService, because submit() callers wait for their reply.
// Three graphs of a few thousand vertices are registered (gnp-deg8,
// hyperbolic-deg8, rgg-deg8); each client runs whole rounds of its half
// of a fixed plan: decompositions under Theorems 1-3, MIS, coloring,
// spanner and cover requests, and exact repeats that hit the result
// cache. The only workload that exercises the cache, the context pool,
// same-graph serialization and the deliverables, which cost several
// times the carve they wrap.
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <numbers>
#include <string>
#include <thread>

#include "apps/coloring.hpp"
#include "apps/decomposition_solver.hpp"
#include "apps/mis.hpp"
#include "apps/spanner.hpp"
#include "check.hpp"
#include "decomposition/carving_protocol.hpp"
#include "decomposition/covers.hpp"
#include "decomposition/elkin_neiman.hpp"
#include "decomposition/high_radius.hpp"
#include "decomposition/multistage.hpp"
#include "decomposition/validation.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "service/decomposition_service.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dsnd;

constexpr VertexId kVertices = 5'000;
// Set-up is ~0.1 s (three graphs, three warm-up carves): nine of them
// give setup_s a median without costing the run a second.
constexpr int kSetups = 9;
constexpr int kClients = 2;
constexpr int kCoverRadius = 1;
constexpr const char* kGraphIds[] = {"gnp-deg8", "hyperbolic-deg8",
                                     "rgg-deg8"};
constexpr int kGraphs = 3;
// The registered graphs are the same in every run and --seed picks the
// request seeds, as a service serves a fixed set of graphs. Drawn from
// --seed, the graphs moved req_rate_rps by a quarter between seeds
// through the deliverable costs.
constexpr std::uint64_t kGraphSetSeed = 1;

enum class Kind { kTheorem1, kTheorem2, kTheorem3, kMis, kColoring, kSpanner, kCover };

struct PlanEntry {
  int graph = 0;
  Kind kind = Kind::kTheorem1;
  /// Index of the earlier entry of the same client round this one
  /// repeats exactly (a cache hit), or -1.
  int repeat_of = -1;
};

// One round of a client: ten decompositions, two exact repeats, and the
// four deliverables. Sorted by latency a round reads: the 2 repeats
// (microseconds), the 8 Theorem 1 and 2 decompositions of rgg, the hot
// graph, with its MIS and coloring (15-20 ms, a tight block), then
// Theorem 1 on hyperbolic and Theorem 3 on gnp (20-40 ms, spread by
// contention), the cover (~0.2 s) and the spanner on gnp (~1.1 s, its
// O(n(n+m)) stretch check). The median request falls inside the tight
// block, not in a gap between blocks. MIS and coloring sit on rgg: on gnp
// and hyperbolic their exact per-cluster diameters, quadratic in cluster
// size, cost 0.1-1.7 s with a tail that moved req_rate_rps by 18% between
// runs. Every repeat directly follows its original on the same client,
// so which requests hit the cache does not depend on how the clients
// interleave. The second client runs the same list rotated by half a
// round, so both carry the same load but reach each graph at different
// times.
constexpr int kPlanLength = 16;
constexpr int kRotation = 8;
const PlanEntry kPlan[kPlanLength] = {
    {2, Kind::kTheorem1},    {2, Kind::kTheorem1, 0}, {2, Kind::kTheorem1},
    {2, Kind::kMis},         {2, Kind::kTheorem1},    {1, Kind::kTheorem1},
    {2, Kind::kTheorem2},    {0, Kind::kSpanner},     {2, Kind::kTheorem1},
    {2, Kind::kTheorem1, 8}, {2, Kind::kColoring},    {2, Kind::kTheorem1},
    {0, Kind::kTheorem3},    {2, Kind::kTheorem1},    {2, Kind::kCover},
    {2, Kind::kTheorem1},
};
// Rounds per client whose carves feed the end-to-end counts; every client
// runs at least this many, so the counts repeat exactly for a seed.
constexpr int kCountedRounds = 3;

/// Plan index of a client's i-th request in a round.
int plan_index(int client, int i) {
  return (i + client * kRotation) % kPlanLength;
}

struct Schedules {
  CarveSchedule theorem1 = theorem1_schedule(kVertices, 0, 4.0);
  CarveSchedule theorem2 = theorem2_schedule(kVertices, 0, 6.0);
  CarveSchedule theorem3 = theorem3_schedule(kVertices, 3, 4.0);

  const CarveSchedule& of(Kind kind) const {
    if (kind == Kind::kTheorem2) return theorem2;
    if (kind == Kind::kTheorem3) return theorem3;
    return theorem1;
  }
};

Deliverable deliverable_of(Kind kind) {
  switch (kind) {
    case Kind::kMis:
      return Deliverable::kMis;
    case Kind::kColoring:
      return Deliverable::kColoring;
    case Kind::kSpanner:
      return Deliverable::kSpanner;
    case Kind::kCover:
      return Deliverable::kCover;
    default:
      return Deliverable::kDecomposition;
  }
}

/// The seed of plan entry `p` in a client's round; a repeat takes its
/// original's.
std::uint64_t entry_seed(std::uint64_t run_seed, int client, int round, int p) {
  const int original = kPlan[p].repeat_of;
  if (original >= 0) p = original;
  return derive_seed(
      run_seed, Stream::kPlan,
      static_cast<std::uint64_t>((round * kClients + client) * kPlanLength + p));
}

ServiceRequest make_request(const Schedules& schedules, const PlanEntry& entry,
                            std::uint64_t seed) {
  ServiceRequest request;
  request.graph_id = kGraphIds[entry.graph];
  request.schedule = schedules.of(entry.kind);
  request.seed = seed;
  request.deliverable = deliverable_of(entry.kind);
  request.cover_radius = kCoverRadius;
  return request;
}

Graph generate(int graph, std::uint64_t seed) {
  switch (graph) {
    case 0:
      return make_gnp(kVertices, 8.0 / static_cast<double>(kVertices - 1),
                      seed, 1);
    case 1:
      return make_hyperbolic(kVertices, 8.0, 2.8, seed, 1);
    default:
      return make_rgg(kVertices,
                      std::sqrt(8.0 / (std::numbers::pi *
                                       static_cast<double>(kVertices))),
                      seed, 1);
  }
}

/// Order-sensitive hash of an answer: the clustering and whichever
/// deliverable it carries.
std::uint64_t digest(const ServiceResult& result) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::int64_t value) {
    h ^= static_cast<std::uint64_t>(value);
    h *= 1099511628211ull;
  };
  const Clustering& clustering = result.run.run.clustering();
  for (VertexId v = 0; v < clustering.num_vertices(); ++v) {
    mix(clustering.cluster_of(v));
  }
  for (ClusterId c = 0; c < clustering.num_clusters(); ++c) {
    mix(clustering.center_of(c));
    mix(clustering.color_of(c));
  }
  if (result.mis) {
    for (const char bit : result.mis->in_mis) mix(bit);
  }
  if (result.coloring) {
    for (const std::int32_t color : result.coloring->colors) mix(color);
  }
  if (result.spanner) {
    for (const VertexId v : result.spanner->spanner.csr_adjacency()) mix(v);
  }
  if (result.cover) {
    for (const CoverCluster& cluster : result.cover->clusters) {
      for (const VertexId v : cluster.members) mix(v);
      mix(-1);
    }
  }
  return h;
}

struct Instance {
  std::vector<Graph> graphs;  // the service owns copies; these are for checks
  std::unique_ptr<DecompositionService> service;
};

/// A service with the three graphs registered and warmed up; set-up `s`
/// warms up on its own seeds (see batch.cpp).
std::unique_ptr<Instance> build(std::uint64_t run_seed, int s,
                                const Schedules& schedules, Tracer* tracer,
                                RunReport& report) {
  auto instance = std::make_unique<Instance>();
  ServiceOptions options;
  options.engine = one_worker();
  instance->service = std::make_unique<DecompositionService>(options);
  for (int g = 0; g < kGraphs; ++g) {
    {
      MaybeSpan span(tracer, "graph.generate");
      instance->graphs.push_back(
          generate(g, derive_seed(kGraphSetSeed, Stream::kGraph,
                                  static_cast<std::uint64_t>(g))));
    }
    if (tracer != nullptr) {
      Tracer::Scope span(*tracer, "graph.fingerprint");
      (void)instance->graphs.back().fingerprint();
    }
    MaybeSpan span(tracer, "service.register");
    instance->service->register_graph(kGraphIds[g], instance->graphs.back());
  }
  for (int g = 0; g < kGraphs; ++g) {
    ServiceRequest warmup = make_request(
        schedules, PlanEntry{g, Kind::kTheorem1},
        derive_seed(run_seed, Stream::kWarmup,
                    static_cast<std::uint64_t>(s * kGraphs + g)));
    MaybeSpan span(tracer, "warmup");
    const ServiceResponse response = instance->service->submit(warmup);
    report.invariant(response.valid && response.status == "ok",
                     std::string("serve-mix warm-up on ") + kGraphIds[g] +
                         " returned " + response.status);
  }
  return instance;
}

struct Outcome {
  int round = 0;
  int index = 0;  // into kPlan
  double ms = 0.0;
  ServiceResponse response;
  std::string error;  // an exception submit() threw
};

/// Checks one answer with the benchmark's own checker; a miss's facts go
/// to the end-to-end counts when `counts` is given.
Verdict judge(const Instance& instance, const Schedules& schedules,
              const PlanEntry& entry, const ServiceResponse& response,
              EndToEnd* counts) {
  Verdict verdict;
  if (!response.valid || response.status != "ok" || !response.result) {
    verdict.fail("status " + response.status);
    return verdict;
  }
  const Graph& g = instance.graphs[static_cast<std::size_t>(entry.graph)];
  const ServiceResult& result = *response.result;
  const CarveSchedule& schedule = schedules.of(entry.kind);
  if (entry.kind == Kind::kCover) {
    if (!result.cover) {
      verdict.fail("cover missing");
    } else {
      verdict = check_cover(g, *result.cover);
    }
    return verdict;
  }
  DecompositionFacts facts;
  verdict = check_decomposition(g, result.run.run.clustering(), schedule,
                                result.run.run.carve, facts);
  if (!verdict.ok) return verdict;
  switch (entry.kind) {
    case Kind::kMis:
      verdict = result.mis ? check_mis(g, result.mis->in_mis)
                           : Verdict{false, "MIS missing"};
      break;
    case Kind::kColoring:
      verdict = result.coloring ? check_coloring(g, *result.coloring)
                                : Verdict{false, "coloring missing"};
      break;
    case Kind::kSpanner:
      verdict = result.spanner
                    ? check_spanner(g, result.spanner->spanner,
                                    static_cast<std::int32_t>(4 * schedule.k - 3))
                    : Verdict{false, "spanner missing"};
      break;
    default:
      break;
  }
  // Theorem 3 is the high-radius regime (D = 2k in the hundreds, phases
  // of hundreds of rounds): its few carves per run would make the counts
  // follow the shape of a handful of huge clusters, so the counts cover
  // the O(log n) regime of Theorems 1 and 2.
  if (verdict.ok && counts != nullptr && !response.cache_hit &&
      entry.kind != Kind::kTheorem3) {
    counts->count_carve(static_cast<double>(result.run.run.carve.rounds),
                        result.run.sim.messages, kVertices, facts.colors,
                        facts.diam_bound);
  }
  return verdict;
}

/// Expected service counters after set-up and the executed rounds.
struct PlanCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t distributed_misses = 0;
};

PlanCounts plan_counts(const std::vector<int>& rounds_per_client) {
  PlanCounts counts;
  counts.misses = kGraphs;  // the warm-ups
  counts.distributed_misses = kGraphs;
  for (const int client_rounds : rounds_per_client) {
    for (const PlanEntry& entry : kPlan) {
      const auto rounds = static_cast<std::uint64_t>(client_rounds);
      if (entry.repeat_of >= 0) {
        counts.hits += rounds;
      } else {
        counts.misses += rounds;
        if (entry.kind != Kind::kCover) counts.distributed_misses += rounds;
      }
    }
  }
  return counts;
}

template <typename Fn>
double timed_span(Tracer& tracer, const char* name, std::int64_t request,
                  Fn&& fn) {
  Tracer::Scope span(tracer, name, request);
  Timer timer;
  fn();
  return timer.elapsed_millis();
}

}  // namespace

void run_serve_mix(const RunOptions& options, RunReport& report,
                   Watchdog& watchdog) {
  const Schedules schedules;
  EndToEnd e2e;
  Tracer tracer;
  std::unique_ptr<Instance> instance;
  for (int s = 0; s < (options.trace ? 1 : kSetups); ++s) {
    instance.reset();
    Guarded guard(watchdog, 0, "serve-mix set-up");
    const Timer timer;
    instance = build(options.seed, s, schedules,
                     options.trace ? &tracer : nullptr, report);
    e2e.setup_s.push_back(timer.elapsed_seconds());
  }

  // Timed phase: each client runs whole rounds until the run's seconds
  // have passed at one of its round boundaries (and at least the counted
  // rounds). A client's rate is its requests over its own time, so the
  // faster client's idle wait at the end does not count.
  std::vector<Outcome> outcomes[kClients];
  std::vector<int> rounds_run(kClients, 0);
  double client_rate[kClients] = {};
  const Timer phase;
  const auto client = [&](int c) {
    for (int round = 0;; ++round) {
      for (int i = 0; i < kPlanLength; ++i) {
        Outcome outcome;
        outcome.round = round;
        outcome.index = plan_index(c, i);
        const ServiceRequest request = make_request(
            schedules, kPlan[outcome.index],
            entry_seed(options.seed, c, round, outcome.index));
        Guarded guard(watchdog, static_cast<unsigned>(c),
                      std::string("serve-mix ") + request.graph_id + " " +
                          deliverable_name(request.deliverable));
        const Timer timer;
        try {
          outcome.response = instance->service->submit(request);
        } catch (const std::exception& error) {
          outcome.error = error.what();
        }
        outcome.ms = timer.elapsed_millis();
        outcomes[c].push_back(std::move(outcome));
      }
      rounds_run[static_cast<std::size_t>(c)] = round + 1;
      if (round + 1 >= kCountedRounds &&
          phase.elapsed_seconds() >= options.seconds) {
        client_rate[c] = static_cast<double>(outcomes[c].size()) /
                         phase.elapsed_seconds();
        return;
      }
    }
  };
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
    for (std::thread& t : clients) t.join();
  }
  const ServiceStats stats = instance->service->stats();

  // Checks, after the timed phase.
  std::map<std::string, std::vector<double>> class_ms;
  std::map<std::pair<int, int>, double> first_round_ms;  // (client, p) -> ms
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t k = 0; k < outcomes[c].size(); ++k) {
      const Outcome& outcome = outcomes[c][k];
      const PlanEntry& entry = kPlan[outcome.index];
      Verdict verdict;
      if (!outcome.error.empty()) {
        verdict.fail("submit threw: " + outcome.error);
      } else {
        verdict = judge(*instance, schedules, entry, outcome.response,
                        outcome.round < kCountedRounds ? &e2e : nullptr);
      }
      if (verdict.ok && entry.repeat_of >= 0) {
        // The original ran just before in the same round (pairs are
        // adjacent in the plan and never split by the rotation).
        const Outcome& original = outcomes[c][k - 1];
        if (original.index != entry.repeat_of || !outcome.response.cache_hit ||
            digest(*outcome.response.result) !=
                digest(*original.response.result)) {
          verdict.fail("a repeat did not return the first answer from the cache");
        }
      }
      report.operation(verdict.ok, std::string("serve-mix ") +
                                       kGraphIds[entry.graph] + " " +
                                       deliverable_name(deliverable_of(entry.kind)) + ": " +
                                       verdict.why);
      if (!verdict.ok) continue;
      e2e.request_ms.push_back(outcome.ms);
      if (entry.repeat_of < 0) {
        class_ms[deliverable_name(deliverable_of(entry.kind))].push_back(outcome.ms);
        if (outcome.round == 0) first_round_ms[{c, outcome.index}] = outcome.ms;
      }
    }
  }
  // req_rate_rps reads request_ms.size() / timed_s: express the summed
  // per-client rate that way.
  e2e.timed_s = static_cast<double>(e2e.request_ms.size()) /
                (client_rate[0] + client_rate[1]);
  const PlanCounts expected = plan_counts(rounds_run);
  report.invariant(stats.cache_hits == expected.hits &&
                       stats.cache_misses == expected.misses,
                   "service cache counters differ from the plan");
  report.invariant(stats.contexts_created == kGraphs &&
                       stats.warm_acquires ==
                           expected.distributed_misses - kGraphs,
                   "service context counters differ from the plan");
  report.invariant(stats.invalid_responses == 0,
                   "the service reported invalid responses");

  if (!options.trace) {
    e2e.emit(report);
    return;
  }

  LayerFigures figures;
  for (const char* name : {"decomposition", "mis", "coloring", "spanner", "cover"}) {
    figures.set(std::string("service.") + name + "_p50_ms", median(class_ms[name]));
  }
  figures.set("service.cache_hits", static_cast<double>(stats.cache_hits));
  figures.set("service.cache_misses", static_cast<double>(stats.cache_misses));
  figures.set("service.hit_ratio",
              static_cast<double>(stats.cache_hits) /
                  static_cast<double>(stats.cache_hits + stats.cache_misses));
  figures.set("service.contexts_created",
              static_cast<double>(stats.contexts_created));
  figures.set("service.warm_acquires", static_cast<double>(stats.warm_acquires));

  // Serial passes over the first round of both clients on fresh services:
  // first untraced (the baseline for contention and tracing overhead),
  // then traced, with the same request's layer calls made directly beside
  // it.
  instance.reset();
  std::vector<double> contention_ms, serial_ms, traced_submit_ms, overhead_ms;
  {
    Guarded guard(watchdog, 0, "serve-mix serial pass");
    const std::unique_ptr<Instance> serial =
        build(options.seed, 0, schedules, nullptr, report);
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kPlanLength; ++i) {
        const int p = plan_index(c, i);
        const Timer timer;
        const ServiceResponse response = serial->service->submit(
            make_request(schedules, kPlan[p], entry_seed(options.seed, c, 0, p)));
        const double ms = timer.elapsed_millis();
        if (kPlan[p].repeat_of >= 0) continue;
        serial_ms.push_back(ms);
        const auto timed = first_round_ms.find({c, p});
        if (timed != first_round_ms.end()) {
          contention_ms.push_back(timed->second - ms);
        }
      }
    }
  }
  instance = build(options.seed, 0, schedules, &tracer, report);
  std::vector<std::unique_ptr<CarveContext>> contexts;
  for (const Graph& g : instance->graphs) {
    Tracer::Scope span(tracer, "decomposition.context");
    contexts.push_back(std::make_unique<CarveContext>(g, one_worker()));
  }
  std::int64_t request_id = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPlanLength; ++i, ++request_id) {
      const int p = plan_index(c, i);
      const PlanEntry& entry = kPlan[p];
      const std::uint64_t seed = entry_seed(options.seed, c, 0, p);
      const ServiceRequest request = make_request(schedules, entry, seed);
      const Graph& g = instance->graphs[static_cast<std::size_t>(entry.graph)];
      Guarded guard(watchdog, 0, "serve-mix traced request");
      Tracer::Scope request_span(tracer, "request", request_id);
      ServiceResponse response;
      const double submit_ms =
          timed_span(tracer, "service.submit", request_id,
                     [&] { response = instance->service->submit(request); });
      const Verdict verdict = judge(*instance, schedules, entry, response, nullptr);
      report.operation(verdict.ok, "serve-mix traced request: " + verdict.why);
      if (entry.repeat_of >= 0) continue;
      traced_submit_ms.push_back(submit_ms);

      // The same request through the layers' public functions.
      const CarveSchedule& schedule = schedules.of(entry.kind);
      double direct_ms = 0.0;
      DecompositionRun run;
      if (entry.kind == Kind::kCover) {
        Graph power;
        direct_ms += timed_span(tracer, "graph.power", request_id, [&] {
          power = graph_power(g, 2 * kCoverRadius + 1);
        });
        direct_ms += timed_span(tracer, "decomposition.central_carve",
                                request_id,
                                [&] { run = run_schedule(power, schedule, seed); });
        direct_ms += timed_span(tracer, "decomposition.validate", request_id, [&] {
          (void)validate_decomposition_fast(power, run.clustering());
        });
        direct_ms += timed_span(tracer, "apps.cover_expand", request_id, [&] {
          (void)expand_clusters_to_cover(g, run.clustering(), kCoverRadius);
        });
      } else {
        direct_ms += timed_span(tracer, "decomposition.warm_carve", request_id, [&] {
          run = run_schedule_distributed(
                    *contexts[static_cast<std::size_t>(entry.graph)], schedule,
                    seed)
                    .run;
        });
        direct_ms += timed_span(tracer, "decomposition.validate", request_id, [&] {
          (void)validate_decomposition_fast(g, run.clustering());
        });
        if (entry.kind == Kind::kMis) {
          direct_ms += timed_span(tracer, "apps.mis", request_id, [&] {
            (void)mis_by_decomposition(g, run.clustering());
          });
        } else if (entry.kind == Kind::kColoring) {
          direct_ms += timed_span(tracer, "apps.coloring", request_id, [&] {
            (void)coloring_by_decomposition(g, run.clustering());
          });
        } else if (entry.kind == Kind::kSpanner) {
          SpannerResult spanner;
          direct_ms += timed_span(tracer, "apps.spanner", request_id, [&] {
            spanner = spanner_by_decomposition(g, run.clustering());
          });
          timed_span(tracer, "apps.measure_stretch", request_id,
                     [&] { (void)measure_stretch(g, spanner.spanner); });
        }
        if (entry.kind == Kind::kMis || entry.kind == Kind::kColoring) {
          timed_span(tracer, "apps.pipeline_cost", request_id,
                     [&] { (void)pipeline_round_cost(g, run.clustering()); });
        }
      }
      overhead_ms.push_back(submit_ms - direct_ms);
      if (response.result) {
        const Clustering& served = response.result->run.run.clustering();
        bool same = served.num_clusters() == run.clustering().num_clusters();
        for (VertexId v = 0; same && v < served.num_vertices(); ++v) {
          same = served.cluster_of(v) == run.clustering().cluster_of(v);
        }
        report.invariant(same, "the service's clustering differs from the "
                               "direct layer calls on the same seed");
      }
    }
  }

  figures.set("graph.generate_ms", median(tracer.self_ms("graph.generate")));
  figures.set("graph.fingerprint_ms", median(tracer.self_ms("graph.fingerprint")));
  figures.set("graph.power_ms", median(tracer.self_ms("graph.power")));
  figures.set("decomposition.context_ms",
              median(tracer.self_ms("decomposition.context")));
  figures.set("decomposition.warm_carve_ms",
              median(tracer.self_ms("decomposition.warm_carve")));
  figures.set("decomposition.validate_ms",
              median(tracer.self_ms("decomposition.validate")));
  figures.set("decomposition.central_carve_ms",
              median(tracer.self_ms("decomposition.central_carve")));
  figures.set("apps.mis_ms", median(tracer.self_ms("apps.mis")));
  figures.set("apps.coloring_ms", median(tracer.self_ms("apps.coloring")));
  figures.set("apps.spanner_ms", median(tracer.self_ms("apps.spanner")));
  figures.set("apps.cover_expand_ms", median(tracer.self_ms("apps.cover_expand")));
  figures.set("apps.pipeline_cost_ms", median(tracer.self_ms("apps.pipeline_cost")));
  figures.set("apps.measure_stretch_ms",
              median(tracer.self_ms("apps.measure_stretch")));
  figures.set("service.overhead_ms", median(overhead_ms));
  figures.set("service.contention_ms", median(contention_ms));
  figures.set("trace.overhead_pct",
              overhead_pct(median(traced_submit_ms), median(serial_ms)));
  figures.emit(report);
  tracer.write_chrome_json(options.trace_path);
}

}  // namespace perfbench
