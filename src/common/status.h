#pragma once

#include <string>
#include <utility>

namespace uqp {

/// Error codes for recoverable failures crossing library boundaries.
/// The library does not throw exceptions; fallible operations return a
/// Status (or StatusOr<T>) in the style of Arrow / RocksDB.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kUnavailable,
  kDeadlineExceeded,
};

/// Result of a fallible operation: either OK or a code plus a message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "InvalidArgument: bad sampling ratio".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value or an error Status. Minimal StatusOr in the Abseil mold.
template <typename T>
class StatusOr {
 public:
  StatusOr(const T& value) : value_(value) {}              // NOLINT
  StatusOr(T&& value) : value_(std::move(value)) {}        // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return value_; }
  T& value() & { return value_; }
  T&& value() && { return std::move(value_); }

  const T& operator*() const& { return value_; }
  T& operator*() & { return value_; }
  const T* operator->() const { return &value_; }
  T* operator->() { return &value_; }

 private:
  Status status_;
  T value_{};
};

}  // namespace uqp

/// Propagate a non-OK Status to the caller.
#define UQP_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::uqp::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                   \
  } while (0)

/// Evaluate a StatusOr expression, binding the value or propagating the error.
#define UQP_ASSIGN_OR_RETURN(lhs, expr)          \
  UQP_ASSIGN_OR_RETURN_IMPL(                     \
      UQP_STATUS_CONCAT(_status_or_, __LINE__), lhs, expr)
#define UQP_ASSIGN_OR_RETURN_IMPL(var, lhs, expr) \
  auto var = (expr);                              \
  if (!var.ok()) return var.status();             \
  lhs = std::move(var).value()
#define UQP_STATUS_CONCAT_INNER(a, b) a##b
#define UQP_STATUS_CONCAT(a, b) UQP_STATUS_CONCAT_INNER(a, b)
