#include <algorithm>

#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

dsnd::EngineOptions one_worker() {
  dsnd::EngineOptions options;
  options.threads = 1;
  return options;
}

std::uint64_t derive_seed(std::uint64_t run_seed, Stream stream,
                          std::uint64_t index) {
  return dsnd::stream_seed(run_seed, static_cast<std::uint64_t>(stream),
                           index);
}

double timed_rounds(double seconds, int per_round,
                    const std::function<double(int round, int i)>& request) {
  double timed_ms = 0.0;
  for (int round = 0; round == 0 || timed_ms < seconds * 1e3; ++round) {
    for (int i = 0; i < per_round; ++i) timed_ms += request(round, i);
  }
  return timed_ms / 1e3;
}

void CarveTally::add(const dsnd::SimMetrics& sim,
                     const dsnd::CarveResult& carve) {
  rounds += sim.rounds;
  messages += sim.messages;
  words += sim.words;
  activations += sim.vertex_activations;
  quiet_rounds += static_cast<std::uint64_t>(
      std::count(sim.messages_per_round.begin(), sim.messages_per_round.end(),
                 std::uint64_t{0}));
  dropped += carve.faults.dropped;
  duplicated += carve.faults.duplicated;
  delayed += carve.faults.delayed;
  lemma1_retries += carve.retries;
  run_retries += carve.run_retries;
  rollbacks += carve.rollbacks;
  replayed_phases += carve.replayed_phases;
  phases_kept += carve.phases_used;
}

void CarveTally::emit(LayerFigures& figures) const {
  const auto d = [](auto value) { return static_cast<double>(value); };
  figures.set("simulator.rounds", d(rounds));
  figures.set("simulator.messages", d(messages));
  figures.set("simulator.words", d(words));
  figures.set("simulator.activations", d(activations));
  figures.set("simulator.quiet_rounds", d(quiet_rounds));
  figures.set("simulator.faults_dropped", d(dropped));
  figures.set("simulator.faults_duplicated", d(duplicated));
  figures.set("simulator.faults_delayed", d(delayed));
  figures.set("decomposition.lemma1_retries", d(lemma1_retries));
  figures.set("decomposition.run_retries", d(run_retries));
  figures.set("decomposition.rollbacks", d(rollbacks));
  figures.set("decomposition.replayed_phases", d(replayed_phases));
  const std::int64_t executed = phases_kept + lemma1_retries + replayed_phases;
  figures.set("decomposition.phase_yield",
              executed > 0 ? d(phases_kept) / d(executed) : 0.0);
}

CarveAnswer answer_of(dsnd::DistributedRun run) {
  CarveAnswer answer;
  answer.rounds = static_cast<double>(run.run.carve.rounds);
  answer.messages = run.sim.messages;
  answer.run = std::move(run);
  return answer;
}

void validate(const dsnd::Graph& g, CarveAnswer& answer) {
  answer.fast = dsnd::validate_decomposition_fast(g, answer.run.run.clustering());
}

Verdict judge_carve(const dsnd::Graph& g, const dsnd::CarveSchedule& schedule,
                    const CarveAnswer& answer, DecompositionFacts& facts) {
  Verdict verdict;
  const dsnd::CarveStatus status = answer.run.run.carve.status;
  if (status != dsnd::CarveStatus::kOk) {
    verdict.fail(std::string("status ") + dsnd::carve_status_name(status));
  } else if (!answer.fast.complete || !answer.fast.proper_phase_coloring ||
             !answer.fast.all_clusters_connected) {
    verdict.fail("validate_decomposition_fast rejected the clustering");
  } else {
    verdict = check_decomposition(g, answer.run.run.clustering(), schedule,
                                  answer.run.run.carve, facts);
  }
  return verdict;
}

bool record_carve(RunReport& report, const std::string& label,
                  const dsnd::Graph& g, const dsnd::CarveSchedule& schedule,
                  const CarveAnswer& answer, EndToEnd* counts) {
  DecompositionFacts facts;
  const Verdict verdict = judge_carve(g, schedule, answer, facts);
  report.operation(verdict.ok, label + ": " + verdict.why);
  if (verdict.ok && counts != nullptr) {
    counts->count_carve(answer.rounds, answer.messages, g.num_vertices(),
                        facts.colors, facts.diam_bound);
  }
  return verdict.ok;
}

double overhead_pct(double traced_ms, double untraced_ms) {
  return untraced_ms > 0.0 ? (traced_ms - untraced_ms) / untraced_ms * 100.0
                           : 0.0;
}

}  // namespace perfbench
