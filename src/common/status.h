// Status / Result error-handling primitives in the RocksDB/Arrow idiom.
//
// Library code never throws across the public API. Fallible operations return
// `Status` (no payload) or `Result<T>` (payload or error). Both are cheap to
// move and carry a machine-readable code plus a human-readable message.
#ifndef ITRIM_COMMON_STATUS_H_
#define ITRIM_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace itrim {

/// Machine-readable error category for `Status` and `Result<T>`. The
/// values are stable; retired codes (5, 7, 9) are not reused.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kFailedPrecondition = 3,
  kNotFound = 4,
  kInternal = 6,
  kIOError = 8,
};

/// \brief Human-readable name of a status code (e.g. "InvalidArgument").
std::string_view StatusCodeName(StatusCode code);

/// \brief Success-or-error outcome of a fallible operation.
///
/// `Status::OK()` is the success value; error factories carry a message.
/// Use `ITRIM_RETURN_NOT_OK(expr)` to propagate errors up the call stack.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// \brief Returns the success status.
  static Status OK() { return Status(); }

  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }

  /// \brief Builds a status of an existing code with a new message (e.g.
  /// re-wrapping a propagated error with caller context). `kOk` yields
  /// OK() and drops the message.
  static Status WithCode(StatusCode code, std::string msg) {
    if (code == StatusCode::kOk) return OK();
    return Status(code, std::move(msg));
  }

  /// \brief True iff this status represents success.
  bool ok() const { return code_ == StatusCode::kOk; }
  /// \brief The status code.
  StatusCode code() const { return code_; }
  /// \brief Error message; empty for OK.
  const std::string& message() const { return message_; }

  /// \brief "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// \brief Value-or-error wrapper: holds a `T` on success, a `Status` on error.
///
/// Deliberately minimal (no monadic combinators): call sites test `ok()` then
/// take `ValueOrDie()` / `*result`, or propagate with ITRIM_ASSIGN_OR_RETURN.
template <typename T>
class Result {
 public:
  /// Constructs a successful result (implicit so `return value;` works).
  Result(T value) : payload_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Constructs an error result from a non-OK status.
  Result(Status status) : payload_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(payload_).ok() &&
           "Result must not be built from an OK Status");
  }

  /// \brief True iff a value is present.
  bool ok() const { return std::holds_alternative<T>(payload_); }

  /// \brief The error status (OK if a value is present).
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(payload_);
  }

  /// \brief Returns the value; dies if this holds an error.
  const T& ValueOrDie() const& {
    assert(ok() && "ValueOrDie on error Result");
    return std::get<T>(payload_);
  }
  T& ValueOrDie() & {
    assert(ok() && "ValueOrDie on error Result");
    return std::get<T>(payload_);
  }
  T&& ValueOrDie() && {
    assert(ok() && "ValueOrDie on error Result");
    return std::get<T>(std::move(payload_));
  }

  /// \brief Returns the value or `fallback` when this holds an error.
  T ValueOr(T fallback) const {
    if (ok()) return std::get<T>(payload_);
    return fallback;
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  std::variant<T, Status> payload_;
};

}  // namespace itrim

/// Propagates a non-OK `Status` to the caller.
#define ITRIM_RETURN_NOT_OK(expr)            \
  do {                                       \
    ::itrim::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (false)

/// Evaluates a `Result<T>` expression; on error returns its status, otherwise
/// assigns the value into `lhs`.
#define ITRIM_ASSIGN_OR_RETURN_IMPL(var, lhs, rexpr) \
  auto var = (rexpr);                                \
  if (!var.ok()) return var.status();                \
  lhs = std::move(var).ValueOrDie()

#define ITRIM_CONCAT_INNER(a, b) a##b
#define ITRIM_CONCAT(a, b) ITRIM_CONCAT_INNER(a, b)
#define ITRIM_ASSIGN_OR_RETURN(lhs, rexpr) \
  ITRIM_ASSIGN_OR_RETURN_IMPL(ITRIM_CONCAT(_itrim_res_, __LINE__), lhs, rexpr)

#endif  // ITRIM_COMMON_STATUS_H_
