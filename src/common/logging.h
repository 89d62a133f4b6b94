#pragma once

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace uqp {

/// Severity levels for the diagnostic logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Log threshold; messages below it are dropped. kWarning, so that library
/// code stays quiet in tests and benches.
LogLevel GetLogLevel();

namespace internal {

/// Stream-style log message that emits on destruction; kFatal aborts.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the level is below threshold.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal
}  // namespace uqp

#define UQP_LOG(level)                                                   \
  (::uqp::LogLevel::k##level < ::uqp::GetLogLevel())                     \
      ? (void)0                                                          \
      : (void)(::uqp::internal::LogMessage(::uqp::LogLevel::k##level,    \
                                           __FILE__, __LINE__))

#define UQP_LOG_STREAM(level) \
  ::uqp::internal::LogMessage(::uqp::LogLevel::k##level, __FILE__, __LINE__)

/// Invariant check: always on (used for internal consistency, not user
/// input validation — user input goes through Status).
#define UQP_CHECK(cond)                                                  \
  while (!(cond))                                                        \
  ::uqp::internal::LogMessage(::uqp::LogLevel::kFatal, __FILE__, __LINE__) \
      << "Check failed: " #cond " "

#define UQP_DCHECK(cond) UQP_CHECK(cond)
