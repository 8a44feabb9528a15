// Pieces every workload shares: order statistics, the run report that
// becomes the final JSON line, the end-to-end figures, the per-layer
// figure table and the deadline watchdog.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Median of `values`; 0 for an empty list.
double median(std::vector<double> values);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_path;
};

/// Attempted and failed operations plus the figures of one run. An
/// operation is one request; it fails when its status is not ok or one
/// of the benchmark's own checks rejects its answer. A run-level
/// invariant that does not belong to one request (the service counters
/// against the plan, for example) clears `correct` instead.
class RunReport {
 public:
  void operation(bool ok, const std::string& what);
  void invariant(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  /// The final line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  struct Figure {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  mutable std::mutex mutex_;  // serve-mix clients report concurrently
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<Figure> figures_;
};

/// The eight end-to-end figures. Latencies come from every timed
/// request; the four counts come from the first round of the plan only,
/// so they repeat exactly for a seed however long the run lasts. Cache
/// hits and cover carves never reach the counts.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> request_ms;
  /// Wall time of the timed phase with the benchmark's checks excluded.
  double timed_s = 0.0;
  std::vector<double> rounds;
  std::uint64_t messages = 0;
  std::uint64_t carved_vertices = 0;
  std::int32_t colors_max = 0;
  std::int32_t diam_bound_max = 0;

  void count_carve(double carve_rounds, std::uint64_t carve_messages,
                   std::int64_t n, std::int32_t colors,
                   std::int32_t diam_bound);
  void emit(RunReport& report) const;
};

/// Every per-layer figure a traced run prints, with its unit. A workload
/// sets the ones its layers exercise; the rest read 0, meaning the
/// workload does not run that layer.
class LayerFigures {
 public:
  LayerFigures();
  void set(const std::string& name, double value);
  void emit(RunReport& report) const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> figures_;
};

/// Ends the process with a named failure when a request outlives its
/// deadline or the run outlives the run deadline, so a hang (for
/// example a lost worker wakeup) stops the run instead of stalling it.
/// Slots let concurrent clients each arm their own request.
class Watchdog {
 public:
  Watchdog(double request_deadline_s, double run_deadline_s,
           std::string workload);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void begin(unsigned slot, const std::string& what);
  void end(unsigned slot);

 private:
  static constexpr unsigned kSlots = 4;
  struct Slot {
    bool armed = false;
    std::chrono::steady_clock::time_point start;
    std::string what;
  };
  void loop();

  const double request_deadline_s_;
  const double run_deadline_s_;
  const std::string workload_;
  const std::chrono::steady_clock::time_point run_start_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  Slot slots_[kSlots];
  std::thread thread_;  // last: it reads every member above
};

/// Arms a watchdog slot for one request's lifetime.
class Guarded {
 public:
  Guarded(Watchdog& watchdog, unsigned slot, const std::string& what)
      : watchdog_(watchdog), slot_(slot) {
    watchdog_.begin(slot_, what);
  }
  ~Guarded() { watchdog_.end(slot_); }
  Guarded(const Guarded&) = delete;
  Guarded& operator=(const Guarded&) = delete;

 private:
  Watchdog& watchdog_;
  unsigned slot_;
};

}  // namespace perfbench
