#include "support/log.hpp"

#include <atomic>
#include <iostream>

namespace dsnd {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kOff};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void log_message(LogLevel level, const std::string& message) {
  const LogLevel threshold = log_level();
  if (threshold == LogLevel::kOff ||
      static_cast<int>(level) < static_cast<int>(threshold)) {
    return;
  }
  const std::string line =
      std::string("[") + level_name(level) + "] " + message + '\n';
  std::cerr.write(line.data(), static_cast<std::streamsize>(line.size()));
}

}  // namespace dsnd
