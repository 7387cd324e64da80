// Lightweight error-handling vocabulary used across all MD-DSM modules.
//
// Middleware layers communicate failures across component boundaries where
// exceptions would couple unrelated subsystems; following the Core
// Guidelines (E.2, I.10) we use a value-semantic Status/Result pair for
// recoverable errors and reserve exceptions for programming errors.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace mdsm {

/// Category of a failure, roughly mirroring the layers where it can arise.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,   ///< caller passed something malformed
  kNotFound,          ///< named entity absent from a registry/repository
  kAlreadyExists,     ///< unique-name or unique-id collision
  kFailedPrecondition,///< operation not legal in the current state
  kUnavailable,       ///< resource/service (possibly transiently) down
  kTimeout,           ///< deadline exceeded
  kParseError,        ///< textual model/script could not be parsed
  kConformanceError,  ///< model does not conform to its metamodel
  kExecutionError,    ///< EU / action raised a runtime fault
  kInternal,          ///< invariant violation inside the platform
};

/// Human-readable name for an ErrorCode ("ok", "not-found", ...).
std::string_view to_string(ErrorCode code) noexcept;

/// A success-or-error value. Cheap to copy on success (empty message).
class Status {
 public:
  Status() noexcept = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() noexcept { return {}; }

  [[nodiscard]] bool ok() const noexcept { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  /// "ok" or "<code>: <message>" — for logs and test diagnostics.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

inline Status InvalidArgument(std::string msg) {
  return {ErrorCode::kInvalidArgument, std::move(msg)};
}
inline Status NotFound(std::string msg) {
  return {ErrorCode::kNotFound, std::move(msg)};
}
inline Status AlreadyExists(std::string msg) {
  return {ErrorCode::kAlreadyExists, std::move(msg)};
}
inline Status FailedPrecondition(std::string msg) {
  return {ErrorCode::kFailedPrecondition, std::move(msg)};
}
inline Status Unavailable(std::string msg) {
  return {ErrorCode::kUnavailable, std::move(msg)};
}
inline Status Timeout(std::string msg) {
  return {ErrorCode::kTimeout, std::move(msg)};
}
inline Status ParseError(std::string msg) {
  return {ErrorCode::kParseError, std::move(msg)};
}
inline Status ConformanceError(std::string msg) {
  return {ErrorCode::kConformanceError, std::move(msg)};
}
inline Status ExecutionError(std::string msg) {
  return {ErrorCode::kExecutionError, std::move(msg)};
}
inline Status Internal(std::string msg) {
  return {ErrorCode::kInternal, std::move(msg)};
}

/// The Status a successful Result reports. A namespace-scope constant
/// rather than a function-local static: the guarded initialization of
/// a local static makes GCC 12 misreport -Wmaybe-uninitialized in
/// callers of Result<T>::status().
inline const Status kOkStatus{};

/// Thrown only by Result<T>::value() on misuse (programming error).
class BadResultAccess : public std::logic_error {
 public:
  explicit BadResultAccess(const Status& status)
      : std::logic_error("Result accessed without value: " +
                         status.to_string()) {}
};

/// A value of type T or the Status explaining why it is absent.
template <typename T>
class Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): by-design implicit, like
  // absl::StatusOr, so `return value;` and `return ErrStatus;` both work.
  Result(T value) : rep_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : rep_(std::move(status)) {
    if (std::get<Status>(rep_).ok()) {
      rep_ = Status{ErrorCode::kInternal, "ok Status used as error Result"};
    }
  }

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<T>(rep_);
  }

  [[nodiscard]] const Status& status() const noexcept {
    return ok() ? kOkStatus : std::get<Status>(rep_);
  }

  [[nodiscard]] T& value() & {
    ensure();
    return std::get<T>(rep_);
  }
  [[nodiscard]] const T& value() const& {
    ensure();
    return std::get<T>(rep_);
  }
  [[nodiscard]] T&& value() && {
    ensure();
    return std::get<T>(std::move(rep_));
  }

  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<T>(rep_) : std::move(fallback);
  }

  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }

 private:
  void ensure() const {
    if (!ok()) throw BadResultAccess(std::get<Status>(rep_));
  }
  std::variant<T, Status> rep_;
};

/// Inline mode of the layers' resumable state machines: `start` is given
/// a completion that must fire before `start` returns, and its outcome
/// becomes the return value. The sync entry points of the Broker and
/// Controller layers are thin wrappers over this.
template <typename T, typename Start>
T run_inline(Start&& start) {
  std::optional<T> outcome;
  std::forward<Start>(start)(
      [&outcome](T settled) { outcome.emplace(std::move(settled)); });
  return std::move(outcome).value();
}

/// The state of one run of such a machine. An inline run finishes before
/// its entry point returns, so its state is the caller's `local`, behind
/// a non-owning pointer (nothing parks, so nothing retains it); an async
/// run may outlive its caller and gets heap state.
template <typename T>
std::shared_ptr<T> run_state(bool inline_mode, T& local) {
  return inline_mode ? std::shared_ptr<T>(std::shared_ptr<void>(), &local)
                     : std::make_shared<T>();
}

/// Propagate an error Status from an expression that yields Status.
#define MDSM_RETURN_IF_ERROR(expr)                    \
  do {                                                \
    ::mdsm::Status mdsm_status_ = (expr);             \
    if (!mdsm_status_.ok()) return mdsm_status_;      \
  } while (false)

}  // namespace mdsm
