// The four workloads and what they share. Each workload sets up several
// times (setup_s is the median), runs whole rounds of a fixed request
// list until the run's seconds of request time have passed, checks every
// answer with check.hpp outside the timed spans, and with --trace 1 adds
// a serial traced pass that calls each layer's public function directly.
#pragma once

#include <cstdint>
#include <functional>

#include "check.hpp"
#include "decomposition/carving.hpp"
#include "decomposition/carving_protocol.hpp"
#include "decomposition/validation.hpp"
#include "harness.hpp"
#include "simulator/engine.hpp"
#include "trace.hpp"

namespace perfbench {

void run_batch_rgg(const RunOptions& options, RunReport& report,
                   Watchdog& watchdog);
void run_oneshot_ring(const RunOptions& options, RunReport& report,
                      Watchdog& watchdog);
void run_serve_mix(const RunOptions& options, RunReport& report,
                   Watchdog& watchdog);
void run_chaos_gnp(const RunOptions& options, RunReport& report,
                   Watchdog& watchdog);

/// Every engine runs with one worker: WorkerPool::dispatch can lose the
/// wakeup of its parked driver when it has more than one (see README).
dsnd::EngineOptions one_worker();

/// Independent seed streams derived from the run's --seed: graphs,
/// carves, fault plans and request plans each draw from their own.
enum class Stream : std::uint64_t {
  kGraph = 1,
  kWarmup = 2,
  kCarve = 3,
  kFaults = 4,
  kPlan = 5,
};
std::uint64_t derive_seed(std::uint64_t run_seed, Stream stream,
                          std::uint64_t index = 0);

/// Calls request(round, i) for i = 0..per_round-1, round after round,
/// until the latencies it returns add up to `seconds`; every round is
/// whole. Returns the summed latency in seconds.
double timed_rounds(double seconds, int per_round,
                    const std::function<double(int round, int i)>& request);

/// A carve request's answer: the run plus the library's validation of it.
struct CarveAnswer {
  dsnd::DistributedRun run;
  dsnd::FastDecompositionReport fast;
  /// What the end-to-end counts use: the carve's own rounds and the
  /// simulator's messages, or every attempt's where a transport counted.
  double rounds = 0.0;
  std::uint64_t messages = 0;
};

/// An answer whose counts are the carve's own rounds and messages.
CarveAnswer answer_of(dsnd::DistributedRun run);

/// Runs validate_decomposition_fast, part of a request's timed span.
void validate(const dsnd::Graph& g, CarveAnswer& answer);

/// The library's status and validation are ok and the benchmark's own
/// checker accepts the decomposition.
Verdict judge_carve(const dsnd::Graph& g, const dsnd::CarveSchedule& schedule,
                    const CarveAnswer& answer, DecompositionFacts& facts);

/// Judges one timed or traced request as an operation; when it passes
/// and `counts` is given its facts go to the end-to-end counts. Returns
/// whether it passed.
bool record_carve(RunReport& report, const std::string& label,
                  const dsnd::Graph& g, const dsnd::CarveSchedule& schedule,
                  const CarveAnswer& answer, EndToEnd* counts);

/// Simulator and recovery counts summed over the traced pass's carves.
struct CarveTally {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::uint64_t activations = 0;
  std::uint64_t quiet_rounds = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::int64_t lemma1_retries = 0;
  std::int64_t run_retries = 0;
  std::int64_t rollbacks = 0;
  std::int64_t replayed_phases = 0;
  std::int64_t phases_kept = 0;

  void add(const dsnd::SimMetrics& sim, const dsnd::CarveResult& carve);
  /// Sets the simulator.* and decomposition.* count figures; phase_yield
  /// is phases kept over phases executed (kept + Lemma 1 recarves +
  /// replayed phases).
  void emit(LayerFigures& figures) const;
};

/// (traced - untraced) / untraced, in percent.
double overhead_pct(double traced_ms, double untraced_ms);

}  // namespace perfbench
