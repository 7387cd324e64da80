// Minimal leveled logger. The middleware layers log structural events
// (component instantiation, signal dispatch, autonomic adaptation) at
// kInfo/kDebug; tests silence output by lowering the global level.
#pragma once

#include <mutex>
#include <sstream>
#include <string>
#include <string_view>

namespace mdsm {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are discarded. Thread-safe.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// Emit one line: "[level] [component] message". Thread-safe.
void log_message(LogLevel level, std::string_view component,
                 std::string_view message);

namespace detail {

/// RAII line builder: collects streamed parts, emits on destruction.
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() {
    if (level_ >= log_level()) log_message(level_, component_, out_.str());
  }

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (level_ >= log_level()) out_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream out_;
};

/// Turns a streamed LogLine expression into void, so that MDSM_LOG_DEBUG
/// can be the second operand of a conditional expression.
struct LogVoidify {
  void operator&(const LogLine&) const noexcept {}
};

}  // namespace detail

/// `MDSM_LOG_DEBUG("component") << a << b;` logs at kDebug. Below that
/// level it costs one level check: no line is built and the streamed
/// operands are not evaluated.
#define MDSM_LOG_DEBUG(component)                                  \
  (::mdsm::log_level() > ::mdsm::LogLevel::kDebug)                 \
      ? (void)0                                                    \
      : ::mdsm::detail::LogVoidify() &                             \
            ::mdsm::detail::LogLine(::mdsm::LogLevel::kDebug, (component))

inline detail::LogLine log_info(std::string_view component) {
  return {LogLevel::kInfo, component};
}
inline detail::LogLine log_warn(std::string_view component) {
  return {LogLevel::kWarn, component};
}
inline detail::LogLine log_error(std::string_view component) {
  return {LogLevel::kError, component};
}

}  // namespace mdsm
