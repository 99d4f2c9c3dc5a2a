// Status and Result<T>: the error-handling vocabulary of the library.
//
// Library code does not throw exceptions. Fallible operations return a
// Status (for procedures) or a Result<T> (for functions producing a value),
// in the style of RocksDB's rocksdb::Status and Arrow's arrow::Result.
//
// Ownership & thread-safety: Status and Result<T> are value types owning
// their (copy-on-write-free) message storage; distinct instances are
// independent, and const access to a shared instance is safe like any
// immutable value.

#ifndef MOCHE_UTIL_STATUS_H_
#define MOCHE_UTIL_STATUS_H_

#include <string>
#include <optional>
#include <utility>

namespace moche {

/// Machine-readable category of a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kAlreadyPasses = 4,     ///< the KS test passes; nothing to explain
  kResourceExhausted = 5, ///< an iteration/sampling budget ran out
  kInternal = 6,
  kUnimplemented = 7,
};

/// Returns a stable, human-readable name such as "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

/// The outcome of a fallible operation: a code plus an optional message.
///
/// A default-constructed Status is OK. Statuses are cheap to copy (the
/// message is empty in the common OK case).
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
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status AlreadyPasses(std::string msg) {
    return Status(StatusCode::kAlreadyPasses, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsAlreadyPasses() const { return code_ == StatusCode::kAlreadyPasses; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or a non-OK Status explaining its absence.
///
/// Typical use:
///   Result<Explanation> r = moche.Explain(...);
///   if (!r.ok()) return r.status();
///   const Explanation& e = r.value();
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (the success path).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from a non-OK status (the failure path).
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      // An OK status carries no value; normalize to an internal error so the
      // bug is visible instead of silently dereferencing nothing.
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }

  const Status& status() const { return status_; }

  /// The value; on an error Result this throws std::bad_optional_access.
  const T& value() const& { return value_.value(); }
  T& value() & { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` when this Result holds an error.
  T value_or(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  // OK exactly when value_ holds a value. Two plain members rather than a
  // variant: GCC 12 at -O3 reports a spurious -Wmaybe-uninitialized on the
  // variant's string storage.
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status to the caller.
#define MOCHE_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::moche::Status _st = (expr);              \
    if (!_st.ok()) return _st;                 \
  } while (0)

/// Evaluates a Result<T> expression; on success binds the value, otherwise
/// returns its Status to the caller.
#define MOCHE_ASSIGN_OR_RETURN(lhs, rexpr)     \
  MOCHE_ASSIGN_OR_RETURN_IMPL_(                \
      MOCHE_STATUS_CONCAT_(_moche_result, __LINE__), lhs, rexpr)

#define MOCHE_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()

#define MOCHE_STATUS_CONCAT_(a, b) MOCHE_STATUS_CONCAT_IMPL_(a, b)
#define MOCHE_STATUS_CONCAT_IMPL_(a, b) a##b

}  // namespace moche

#endif  // MOCHE_UTIL_STATUS_H_
