// Error handling and invariant checking for the PolyMG library.
//
// All precondition and invariant violations funnel through Error (a
// std::runtime_error subclass) so library users can catch one type. Each
// Error carries an ErrorCode so the guarded-execution layer can dispatch
// on failure kind (fall back on InvalidPlan, shed a PoolExhausted request
// as Overloaded, ...) without parsing messages. The PMG_CHECK macro is
// always on (multigrid planning is not on the hot path); PMG_DCHECK
// compiles out in release builds and is used inside point loops.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace polymg {

/// Machine-readable failure kind. Generic covers legacy PMG_CHECK
/// invariants; the rest are the guarded-execution taxonomy.
enum class ErrorCode {
  Generic,               ///< unclassified invariant violation
  InvalidPlan,           ///< compiled plan failed validation
  NumericalDivergence,   ///< non-finite values or exploding residuals
  ResidualStagnation,    ///< residual stopped contracting before tolerance
  PoolExhausted,         ///< pooled allocator could not serve a request
  PreconditionViolated,  ///< caller broke a documented API precondition
  CheckpointCorrupt,     ///< checkpoint payload failed its checksum
  DeadlineExceeded,      ///< a request's deadline passed mid-solve
  Cancelled,             ///< cooperative cancellation was requested
  Overloaded,            ///< admission control shed the request (retryable)
  SolveStalled,          ///< watchdog saw no progress epochs; solve killed
  WorkerLost,            ///< a service worker stopped responding entirely
};

const char* to_string(ErrorCode code);

/// Exception type thrown on any misuse of the library or internal
/// invariant violation.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what)
      : std::runtime_error(what), code_(ErrorCode::Generic) {}
  Error(ErrorCode code, const std::string& what);

  ErrorCode code() const { return code_; }

private:
  ErrorCode code_;
};

namespace detail {
[[noreturn]] void throw_check_failure(const char* cond, const char* file,
                                      int line, const std::string& msg);
[[noreturn]] void throw_check_failure(const char* cond, const char* file,
                                      int line, ErrorCode code,
                                      const std::string& msg);
}  // namespace detail

}  // namespace polymg

/// Always-on invariant check. `msg` may use stream syntax:
///   PMG_CHECK(a == b, "mismatch " << a << " vs " << b);
#define PMG_CHECK(cond, msg)                                              \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::ostringstream pmg_oss_;                                        \
      pmg_oss_ << msg; /* NOLINT */                                       \
      ::polymg::detail::throw_check_failure(#cond, __FILE__, __LINE__,    \
                                            pmg_oss_.str());              \
    }                                                                     \
  } while (0)

/// Always-on check that throws an Error tagged with an ErrorCode:
///   PMG_CHECK_CODE(ok, ErrorCode::PreconditionViolated, "view too small");
#define PMG_CHECK_CODE(cond, code, msg)                                   \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::ostringstream pmg_oss_;                                        \
      pmg_oss_ << msg; /* NOLINT */                                       \
      ::polymg::detail::throw_check_failure(#cond, __FILE__, __LINE__,    \
                                            (code), pmg_oss_.str());      \
    }                                                                     \
  } while (0)

/// Unconditional typed failure.
#define PMG_FAIL(code, msg) PMG_CHECK_CODE(false, (code), msg)

#ifdef NDEBUG
#define PMG_DCHECK(cond, msg) \
  do {                        \
  } while (0)
#else
#define PMG_DCHECK(cond, msg) PMG_CHECK(cond, msg)
#endif
