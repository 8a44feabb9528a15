#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <utility>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------

void RunReport::operation(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: FAILED operation: " << what << "\n";
  }
}

void RunReport::invariant(bool ok, const std::string& what) {
  if (ok) return;
  std::lock_guard<std::mutex> lock(mutex_);
  correct_ = false;
  std::cerr << "perfbench: FAILED invariant: " << what << "\n";
}

void RunReport::metric(const std::string& name, double value,
                       const std::string& unit) {
  if (!std::isfinite(value)) {
    invariant(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  figures_.push_back(Figure{name, value, unit});
}

namespace {

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

}  // namespace

std::string RunReport::json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < figures_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + figures_[i].name + "\": {\"value\": " +
           number(figures_[i].value) + ", \"unit\": \"" + figures_[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------------

void EndToEnd::count_carve(double carve_rounds, std::uint64_t carve_messages,
                           std::int64_t n, std::int32_t colors,
                           std::int32_t diam_bound) {
  rounds.push_back(carve_rounds);
  messages += carve_messages;
  carved_vertices += static_cast<std::uint64_t>(n);
  colors_max = std::max(colors_max, colors);
  diam_bound_max = std::max(diam_bound_max, diam_bound);
}

void EndToEnd::emit(RunReport& report) const {
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("req_p50_ms", median(request_ms), "ms");
  report.metric("req_rate_rps",
                timed_s > 0.0 ? static_cast<double>(request_ms.size()) / timed_s
                              : 0.0,
                "1/s");
  report.metric("rounds_p50", median(rounds), "rounds");
  report.metric("messages_per_vertex",
                carved_vertices > 0 ? static_cast<double>(messages) /
                                          static_cast<double>(carved_vertices)
                                    : 0.0,
                "msgs/vertex");
  report.metric("colors_max", colors_max, "colors");
  report.metric("diam_bound_max", diam_bound_max, "hops");
}

// ---------------------------------------------------------------------------

LayerFigures::LayerFigures() {
  static const std::pair<const char*, const char*> kFigures[] = {
      {"graph.generate_ms", "ms"},
      {"graph.layout_ms", "ms"},
      {"graph.fingerprint_ms", "ms"},
      {"graph.power_ms", "ms"},
      {"decomposition.context_ms", "ms"},
      {"decomposition.cold_carve_ms", "ms"},
      {"decomposition.warm_carve_ms", "ms"},
      {"decomposition.validate_ms", "ms"},
      {"decomposition.central_carve_ms", "ms"},
      {"decomposition.lemma1_retries", "count"},
      {"decomposition.run_retries", "count"},
      {"decomposition.rollbacks", "count"},
      {"decomposition.replayed_phases", "phases"},
      {"decomposition.phase_yield", "ratio"},
      {"simulator.rounds", "rounds"},
      {"simulator.messages", "msgs"},
      {"simulator.words", "words"},
      {"simulator.activations", "count"},
      {"simulator.quiet_rounds", "rounds"},
      {"simulator.faults_dropped", "msgs"},
      {"simulator.faults_duplicated", "msgs"},
      {"simulator.faults_delayed", "msgs"},
      {"simulator.relay_overhead_ms", "ms"},
      {"apps.mis_ms", "ms"},
      {"apps.coloring_ms", "ms"},
      {"apps.spanner_ms", "ms"},
      {"apps.cover_expand_ms", "ms"},
      {"apps.pipeline_cost_ms", "ms"},
      {"apps.measure_stretch_ms", "ms"},
      {"service.decomposition_p50_ms", "ms"},
      {"service.mis_p50_ms", "ms"},
      {"service.coloring_p50_ms", "ms"},
      {"service.spanner_p50_ms", "ms"},
      {"service.cover_p50_ms", "ms"},
      {"service.cache_hits", "count"},
      {"service.cache_misses", "count"},
      {"service.hit_ratio", "ratio"},
      {"service.contexts_created", "count"},
      {"service.warm_acquires", "count"},
      {"service.overhead_ms", "ms"},
      {"service.contention_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  for (const auto& [name, unit] : kFigures) {
    order_.emplace_back(name);
    figures_[name] = {0.0, unit};
  }
}

void LayerFigures::set(const std::string& name, double value) {
  const auto it = figures_.find(name);
  if (it == figures_.end()) {
    throw std::logic_error("unknown layer figure " + name);
  }
  it->second.first = value;
}

void LayerFigures::emit(RunReport& report) const {
  for (const std::string& name : order_) {
    const auto& [value, unit] = figures_.at(name);
    report.metric(name, value, unit);
  }
}

// ---------------------------------------------------------------------------

Watchdog::Watchdog(double request_deadline_s, double run_deadline_s,
                   std::string workload)
    : request_deadline_s_(request_deadline_s),
      run_deadline_s_(run_deadline_s),
      workload_(std::move(workload)),
      run_start_(std::chrono::steady_clock::now()),
      thread_([this] { loop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void Watchdog::begin(unsigned slot, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& s = slots_[slot % kSlots];
  s.armed = true;
  s.start = std::chrono::steady_clock::now();
  s.what = what;
}

void Watchdog::end(unsigned slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_[slot % kSlots].armed = false;
}

void Watchdog::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!wake_.wait_for(lock, std::chrono::milliseconds(200),
                         [this] { return stop_; })) {
    const auto now = std::chrono::steady_clock::now();
    std::string failure;
    if (std::chrono::duration<double>(now - run_start_).count() >
        run_deadline_s_) {
      failure = "run deadline of " + std::to_string(run_deadline_s_) +
                " s exceeded";
    }
    for (const Slot& s : slots_) {
      if (s.armed && std::chrono::duration<double>(now - s.start).count() >
                         request_deadline_s_) {
        failure = "request '" + s.what + "' exceeded its deadline of " +
                  std::to_string(request_deadline_s_) + " s";
      }
    }
    if (!failure.empty()) {
      std::fprintf(stderr, "perfbench: DEADLINE_EXCEEDED [%s]: %s\n",
                   workload_.c_str(), failure.c_str());
      std::fflush(stderr);
      std::_Exit(3);  // a hung engine thread cannot be joined
    }
  }
}

}  // namespace perfbench
