// Minimal leveled logger. Off (Warn) by default so figure benches stay
// quiet; integration tests raise the level to trace protocol behaviour.
// Deliberately not thread-aware: the library logs only from sequential
// code — the epoch engine's walk-order commit phase, churn repair and the
// drivers — never from the parallel sensing phase or a pool task, so a
// plain stream suffices and the log order is deterministic.
#pragma once

#include <iostream>
#include <sstream>
#include <string_view>

namespace dirq::sim {

enum class LogLevel : int { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

class Logger {
 public:
  /// Process-wide logger used by the library.
  static Logger& global() {
    static Logger instance;
    return instance;
  }

  void set_level(LogLevel level) noexcept { level_ = level; }
  [[nodiscard]] LogLevel level() const noexcept { return level_; }
  [[nodiscard]] bool enabled(LogLevel level) const noexcept {
    return static_cast<int>(level) >= static_cast<int>(level_);
  }

  void set_sink(std::ostream* sink) noexcept { sink_ = sink; }

  void write(LogLevel level, std::string_view component, std::string_view message) {
    if (!enabled(level) || sink_ == nullptr) return;
    *sink_ << '[' << level_name(level) << "] " << component << ": " << message << '\n';
  }

  static constexpr std::string_view level_name(LogLevel level) noexcept {
    switch (level) {
      case LogLevel::Trace: return "trace";
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
      case LogLevel::Off: return "off";
    }
    return "?";
  }

 private:
  LogLevel level_ = LogLevel::Warn;
  std::ostream* sink_ = &std::cerr;
};

/// Streams `args` to the global logger if `level` is enabled; the message
/// is only materialised when enabled, so disabled logging is nearly free.
template <typename... Args>
void log(LogLevel level, std::string_view component, const Args&... args) {
  Logger& g = Logger::global();
  if (!g.enabled(level)) return;
  std::ostringstream oss;
  (oss << ... << args);
  g.write(level, component, oss.str());
}

}  // namespace dirq::sim
