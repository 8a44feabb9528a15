// Minimal leveled logger. Off by default so tests and benches stay quiet;
// examples turn it on to narrate what the algorithms do.
//
// One global threshold (set_log_level), one sink (stderr), and the
// DSND_LOG_{DEBUG,INFO,WARN,ERROR} stream macros: each builds its line in
// a temporary and hands it to log_message at end of statement, which
// drops it if the level is below the threshold. Lines may come from
// several threads at once — the engine's worker pool and concurrent
// DecompositionService requests — so the threshold is atomic and each
// line reaches stderr in one write; lines from different threads may
// interleave, but never within a line. There is deliberately no
// timestamping: the simulated round/phase counters are the meaningful
// "time" to print.
#pragma once

#include <sstream>
#include <string>

namespace dsnd {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Writes one formatted line to stderr if level passes the threshold.
void log_message(LogLevel level, const std::string& message);

namespace detail {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, stream_.str()); }

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail

}  // namespace dsnd

#define DSND_LOG_DEBUG ::dsnd::detail::LogLine(::dsnd::LogLevel::kDebug)
#define DSND_LOG_INFO ::dsnd::detail::LogLine(::dsnd::LogLevel::kInfo)
#define DSND_LOG_WARN ::dsnd::detail::LogLine(::dsnd::LogLevel::kWarn)
#define DSND_LOG_ERROR ::dsnd::detail::LogLine(::dsnd::LogLevel::kError)
