// Span recorder for the traced pass. Spans are opened around calls into
// the library's public functions from the benchmark's own code, kept in
// memory and written out at the end as Chrome trace-event JSON (open it
// in Perfetto or chrome://tracing). The traced pass is serial, so spans
// nest strictly and a span's self time is its duration minus the sum of
// its children's durations.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  Tracer();

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  /// Opens a span whose parent is the innermost open span. `request`
  /// ties the spans of one request together (-1 for set-up work).
  Scope span(std::string name, std::int64_t request = -1) {
    return Scope(*this, std::move(name), request);
  }

  /// Self time of every span with this name, in ms, in opening order.
  std::vector<double> self_ms(const std::string& name) const;
  /// Full duration of every span with this name, in ms.
  std::vector<double> total_ms(const std::string& name) const;

  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t request = -1;
    std::int64_t parent = -1;
    double begin_us = 0.0;
    double end_us = -1.0;
  };
  double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// A span when a tracer is given and nothing otherwise, so set-up code
/// is shared by the untraced and the traced runs.
class MaybeSpan {
 public:
  MaybeSpan(Tracer* tracer, std::string name, std::int64_t request = -1) {
    if (tracer != nullptr) scope_.emplace(*tracer, std::move(name), request);
  }

 private:
  std::optional<Tracer::Scope> scope_;
};

}  // namespace perfbench
