// batch-rgg-1m: the offline pipeline. A 1M-vertex random geometric graph
// (average degree ~8) relabeled by grid_bucket_layout, then Theorem 1
// carves (k = ceil(ln n)) on one warm CarveContext, each followed by
// validate_decomposition_fast. Engine message volume (~40 messages per
// vertex) and the serial validation dominate; there is no deliverable,
// service or cold-start work.
#include <cmath>
#include <memory>
#include <numbers>
#include <string>

#include "decomposition/elkin_neiman.hpp"
#include "graph/generators.hpp"
#include "graph/relabel.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dsnd;

constexpr VertexId kVertices = 1'000'000;
// One set-up costs ~6 s (generation, layout and a ~4 s warm-up carve),
// so two of them fit beside the timed phase.
constexpr int kSetups = 2;
constexpr int kCarvesPerRound = 4;

struct Instance {
  Graph graph;  // original ids: the ids every answer is keyed to
  LayoutGraph layout;
  std::unique_ptr<CarveContext> context;
  CarveSchedule schedule = theorem1_schedule(kVertices, 0, 4.0);
};

/// Generation, layout and the warm context, with spans in the traced run.
std::unique_ptr<Instance> build(std::uint64_t graph_seed, Tracer* tracer) {
  auto instance = std::make_unique<Instance>();
  const double radius =
      std::sqrt(8.0 / (std::numbers::pi * static_cast<double>(kVertices)));
  GeometricGraph rgg;
  {
    MaybeSpan span(tracer, "graph.generate");
    rgg = make_rgg_geometric(kVertices, radius, graph_seed, 1);
  }
  {
    MaybeSpan span(tracer, "graph.layout");
    instance->layout = make_layout_graph(
        rgg.graph,
        grid_bucket_layout(rgg.x, rgg.y,
                           static_cast<std::int32_t>(std::floor(1.0 / radius))));
  }
  instance->graph = std::move(rgg.graph);
  MaybeSpan span(tracer, "decomposition.context");
  instance->context =
      std::make_unique<CarveContext>(instance->layout, one_worker());
  return instance;
}

/// One request: a warm carve plus the library's validation.
CarveAnswer request(Instance& instance, std::uint64_t seed) {
  CarveAnswer answer = answer_of(
      run_schedule_distributed(*instance.context, instance.schedule, seed));
  validate(instance.graph, answer);
  return answer;
}

std::string label(std::uint64_t seed) {
  return "batch-rgg-1m carve seed " + std::to_string(seed);
}

}  // namespace

void run_batch_rgg(const RunOptions& options, RunReport& report,
                   Watchdog& watchdog) {
  const std::uint64_t graph_seed = derive_seed(options.seed, Stream::kGraph);
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kCarvesPerRound; ++i) {
    seeds.push_back(derive_seed(options.seed, Stream::kCarve,
                                static_cast<std::uint64_t>(i)));
  }

  EndToEnd e2e;
  Tracer tracer;
  Tracer* setup_tracer = options.trace ? &tracer : nullptr;
  std::unique_ptr<Instance> instance;
  for (int s = 0; s < (options.trace ? 1 : kSetups); ++s) {
    instance.reset();
    // Each set-up warms up on its own seed, so setup_s, their median, does
    // not rest on one carve's phase count.
    const std::uint64_t warmup_seed =
        derive_seed(options.seed, Stream::kWarmup, static_cast<std::uint64_t>(s));
    Guarded guard(watchdog, 0, "batch-rgg-1m set-up");
    const Timer timer;
    instance = build(graph_seed, setup_tracer);
    CarveAnswer warmup;
    {
      MaybeSpan span(setup_tracer, "warmup");
      warmup = request(*instance, warmup_seed);
    }
    e2e.setup_s.push_back(timer.elapsed_seconds());
    DecompositionFacts facts;
    const Verdict verdict =
        judge_carve(instance->graph, instance->schedule, warmup, facts);
    report.invariant(verdict.ok, label(warmup_seed) + ": " + verdict.why);
  }

  e2e.timed_s = timed_rounds(options.seconds, kCarvesPerRound, [&](int round,
                                                                   int i) {
    const std::uint64_t seed = seeds[static_cast<std::size_t>(i)];
    CarveAnswer answer;
    double ms = 0.0;
    {
      Guarded guard(watchdog, 0, label(seed));
      const Timer timer;
      answer = request(*instance, seed);
      ms = timer.elapsed_millis();
    }
    if (record_carve(report, label(seed), instance->graph, instance->schedule,
                     answer, round == 0 ? &e2e : nullptr)) {
      e2e.request_ms.push_back(ms);
    }
    return ms;
  });

  if (!options.trace) {
    e2e.emit(report);
    return;
  }

  // Traced pass: the first round again, serially, one span per layer call.
  LayerFigures figures;
  CarveTally tally;
  for (int i = 0; i < kCarvesPerRound; ++i) {
    const std::uint64_t seed = seeds[static_cast<std::size_t>(i)];
    Guarded guard(watchdog, 0, label(seed));
    CarveAnswer answer;
    {
      Tracer::Scope request_span(tracer, "request", i);
      {
        Tracer::Scope span(tracer, "decomposition.warm_carve", i);
        answer.run = run_schedule_distributed(*instance->context,
                                              instance->schedule, seed);
      }
      Tracer::Scope span(tracer, "decomposition.validate", i);
      validate(instance->graph, answer);
    }
    record_carve(report, label(seed), instance->graph, instance->schedule,
                 answer, nullptr);
    tally.add(answer.run.sim, answer.run.run.carve);
  }
  {
    // Cold twin of the first request's carve: a fresh context (its span
    // nests inside) and its first run, same seed.
    Guarded guard(watchdog, 0, "batch-rgg-1m cold carve");
    CarveAnswer cold;
    {
      Tracer::Scope span(tracer, "decomposition.cold_carve", kCarvesPerRound);
      std::unique_ptr<CarveContext> fresh;
      {
        Tracer::Scope context_span(tracer, "decomposition.context",
                                   kCarvesPerRound);
        fresh = std::make_unique<CarveContext>(instance->layout, one_worker());
      }
      cold.run = run_schedule_distributed(*fresh, instance->schedule, seeds[0]);
    }
    validate(instance->graph, cold);
    record_carve(report, label(seeds[0]), instance->graph, instance->schedule,
                 cold, nullptr);
  }

  figures.set("graph.generate_ms", median(tracer.self_ms("graph.generate")));
  figures.set("graph.layout_ms", median(tracer.self_ms("graph.layout")));
  figures.set("decomposition.context_ms",
              median(tracer.total_ms("decomposition.context")));
  figures.set("decomposition.cold_carve_ms",
              median(tracer.total_ms("decomposition.cold_carve")));
  figures.set("decomposition.warm_carve_ms",
              median(tracer.self_ms("decomposition.warm_carve")));
  figures.set("decomposition.validate_ms",
              median(tracer.self_ms("decomposition.validate")));
  tally.emit(figures);
  figures.set("trace.overhead_pct",
              overhead_pct(median(tracer.total_ms("request")),
                           median(e2e.request_ms)));
  figures.emit(report);
  tracer.write_chrome_json(options.trace_path);
}

}  // namespace perfbench
