// oneshot-ring-1m: the library's one-call entry point. Each request is
// elkin_neiman_distributed(g, options, engine) on a 1M-vertex cycle plus
// validation, so every call pays CSR fingerprinting, a cold engine and
// first-run allocation. The ring also has ~5 messages per vertex, long
// quiet phases and cheap validation: the rounds and cold-start side of
// the engine that batch-rgg-1m hides.
#include <memory>
#include <string>

#include "decomposition/elkin_neiman.hpp"
#include "decomposition/elkin_neiman_distributed.hpp"
#include "graph/generators.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dsnd;

constexpr VertexId kVertices = 1'000'000;
constexpr int kSetups = 3;
constexpr int kCallsPerRound = 7;

ElkinNeimanOptions call_options(std::uint64_t seed) {
  ElkinNeimanOptions options;  // k = ceil(ln n), c = 4
  options.seed = seed;
  return options;
}

CarveAnswer request(const Graph& g, std::uint64_t seed) {
  CarveAnswer answer = answer_of(
      elkin_neiman_distributed(g, call_options(seed), one_worker()));
  validate(g, answer);
  return answer;
}

std::string label(std::uint64_t seed) {
  return "oneshot-ring-1m call seed " + std::to_string(seed);
}

}  // namespace

void run_oneshot_ring(const RunOptions& options, RunReport& report,
                      Watchdog& watchdog) {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kCallsPerRound; ++i) {
    seeds.push_back(derive_seed(options.seed, Stream::kCarve,
                                static_cast<std::uint64_t>(i)));
  }
  // The schedule elkin_neiman_distributed derives for these options.
  const CarveSchedule schedule = theorem1_schedule(kVertices, 0, 4.0);

  EndToEnd e2e;
  Tracer tracer;
  Tracer* setup_tracer = options.trace ? &tracer : nullptr;
  std::unique_ptr<Graph> ring;
  for (int s = 0; s < (options.trace ? 1 : kSetups); ++s) {
    ring.reset();
    // Each set-up warms up on its own seed (see batch.cpp).
    const std::uint64_t warmup_seed =
        derive_seed(options.seed, Stream::kWarmup, static_cast<std::uint64_t>(s));
    Guarded guard(watchdog, 0, "oneshot-ring-1m set-up");
    const Timer timer;
    {
      MaybeSpan span(setup_tracer, "graph.generate");
      ring = std::make_unique<Graph>(make_cycle(kVertices, 1));
    }
    CarveAnswer warmup;
    {
      MaybeSpan span(setup_tracer, "warmup");
      warmup = request(*ring, warmup_seed);
    }
    e2e.setup_s.push_back(timer.elapsed_seconds());
    DecompositionFacts facts;
    const Verdict verdict = judge_carve(*ring, schedule, warmup, facts);
    report.invariant(verdict.ok, label(warmup_seed) + ": " + verdict.why);
  }

  e2e.timed_s = timed_rounds(options.seconds, kCallsPerRound, [&](int round,
                                                                  int i) {
    const std::uint64_t seed = seeds[static_cast<std::size_t>(i)];
    CarveAnswer answer;
    double ms = 0.0;
    {
      Guarded guard(watchdog, 0, label(seed));
      const Timer timer;
      answer = request(*ring, seed);
      ms = timer.elapsed_millis();
    }
    if (record_carve(report, label(seed), *ring, schedule, answer,
                     round == 0 ? &e2e : nullptr)) {
      e2e.request_ms.push_back(ms);
    }
    return ms;
  });

  if (!options.trace) {
    e2e.emit(report);
    return;
  }

  // Traced pass: the one-shot calls again (cold carves that fingerprint
  // the graph inside), then the same seeds warm on one context.
  LayerFigures figures;
  CarveTally tally;
  for (int i = 0; i < kCallsPerRound; ++i) {
    const std::uint64_t seed = seeds[static_cast<std::size_t>(i)];
    Guarded guard(watchdog, 0, label(seed));
    {
      // What each one-shot call pays to key its throwaway service.
      Tracer::Scope span(tracer, "graph.fingerprint", i);
      (void)ring->fingerprint();
    }
    CarveAnswer answer;
    {
      Tracer::Scope request_span(tracer, "request", i);
      {
        Tracer::Scope span(tracer, "decomposition.cold_carve", i);
        answer.run =
            elkin_neiman_distributed(*ring, call_options(seed), one_worker());
      }
      Tracer::Scope span(tracer, "decomposition.validate", i);
      validate(*ring, answer);
    }
    record_carve(report, label(seed), *ring, schedule, answer, nullptr);
    tally.add(answer.run.sim, answer.run.run.carve);
  }
  {
    Guarded guard(watchdog, 0, "oneshot-ring-1m warm carves");
    std::unique_ptr<CarveContext> context;
    {
      Tracer::Scope span(tracer, "decomposition.context");
      context = std::make_unique<CarveContext>(*ring, one_worker());
    }
    (void)run_schedule_distributed(
        *context, schedule, derive_seed(options.seed, Stream::kWarmup));
    for (int i = 0; i < kCallsPerRound; ++i) {
      const std::uint64_t seed = seeds[static_cast<std::size_t>(i)];
      CarveAnswer warm;
      {
        Tracer::Scope span(tracer, "decomposition.warm_carve", i);
        warm.run = run_schedule_distributed(*context, schedule, seed);
      }
      validate(*ring, warm);
      record_carve(report, label(seed) + " (warm)", *ring, schedule, warm,
                   nullptr);
    }
  }

  figures.set("graph.generate_ms", median(tracer.self_ms("graph.generate")));
  figures.set("graph.fingerprint_ms",
              median(tracer.self_ms("graph.fingerprint")));
  figures.set("decomposition.context_ms",
              median(tracer.total_ms("decomposition.context")));
  figures.set("decomposition.cold_carve_ms",
              median(tracer.self_ms("decomposition.cold_carve")));
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
