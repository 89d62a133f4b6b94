#include "common/logging.h"

namespace uqp {

namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return LogLevel::kWarning; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= GetLogLevel() || level_ == LogLevel::kFatal) {
    std::cerr << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace uqp
