#pragma once
// Minimal leveled logger. Components log through a shared sink with a
// component tag; benchmarks and tests lower the level to keep output
// clean. Thread-safe: the level and sink pointer are atomics, and each
// log line is formatted locally then written under a sink mutex, so
// concurrent epoch workers (`epoch_threads > 1`) never interleave
// characters or race on configuration.

#include <atomic>
#include <iostream>
#include <mutex>
#include <string>
#include <string_view>

namespace slices {

enum class LogLevel { trace, debug, info, warn, error, off };

[[nodiscard]] constexpr std::string_view to_string(LogLevel l) noexcept {
  switch (l) {
    case LogLevel::trace: return "TRACE";
    case LogLevel::debug: return "DEBUG";
    case LogLevel::info: return "INFO";
    case LogLevel::warn: return "WARN";
    case LogLevel::error: return "ERROR";
    case LogLevel::off: return "OFF";
  }
  return "?";
}

/// Global log configuration (level + output stream).
class LogConfig {
 public:
  [[nodiscard]] static LogLevel level() noexcept {
    return level_cell().load(std::memory_order_relaxed);
  }
  static void set_level(LogLevel l) noexcept {
    level_cell().store(l, std::memory_order_relaxed);
  }

  [[nodiscard]] static std::ostream* stream() noexcept {
    return stream_cell().load(std::memory_order_acquire);
  }
  /// Swap the sink. Takes the sink mutex so no line is mid-write on the
  /// old stream when the pointer changes.
  static void set_stream(std::ostream* os) noexcept {
    std::lock_guard<std::mutex> lock(sink_mutex());
    stream_cell().store(os, std::memory_order_release);
  }

  /// Serializes whole-line writes to the sink.
  [[nodiscard]] static std::mutex& sink_mutex() noexcept {
    static std::mutex m;
    return m;
  }

 private:
  static std::atomic<LogLevel>& level_cell() noexcept {
    static std::atomic<LogLevel> lvl{LogLevel::warn};
    return lvl;
  }
  static std::atomic<std::ostream*>& stream_cell() noexcept {
    static std::atomic<std::ostream*> os{&std::clog};
    return os;
  }
};

/// Log one line at `level` under component tag `tag`. The line is built
/// in a local buffer and written with a single locked insertion.
inline void log_line(LogLevel level, std::string_view tag, std::string_view msg) {
  if (level < LogConfig::level()) return;
  std::string line;
  line.reserve(tag.size() + msg.size() + 16);
  line += '[';
  line += to_string(level);
  line += "] ";
  line += tag;
  line += ": ";
  line += msg;
  line += '\n';
  std::lock_guard<std::mutex> lock(LogConfig::sink_mutex());
  *LogConfig::stream() << line;
}

/// Tagged logger handle owned by a component.
class Logger {
 public:
  explicit Logger(std::string tag) : tag_(std::move(tag)) {}

  void trace(std::string_view msg) const { log_line(LogLevel::trace, tag_, msg); }
  void debug(std::string_view msg) const { log_line(LogLevel::debug, tag_, msg); }
  void info(std::string_view msg) const { log_line(LogLevel::info, tag_, msg); }
  void warn(std::string_view msg) const { log_line(LogLevel::warn, tag_, msg); }
  void error(std::string_view msg) const { log_line(LogLevel::error, tag_, msg); }

  /// Whether a line at `level` would be written. Test it before building
  /// a message that costs formatting, so a dropped line costs nothing.
  [[nodiscard]] bool enabled(LogLevel level) const noexcept { return level >= LogConfig::level(); }

  [[nodiscard]] const std::string& tag() const noexcept { return tag_; }

 private:
  std::string tag_;
};

}  // namespace slices
