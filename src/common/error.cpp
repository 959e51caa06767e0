#include "polymg/common/error.hpp"

namespace polymg {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::Generic:
      return "Generic";
    case ErrorCode::InvalidPlan:
      return "InvalidPlan";
    case ErrorCode::NumericalDivergence:
      return "NumericalDivergence";
    case ErrorCode::ResidualStagnation:
      return "ResidualStagnation";
    case ErrorCode::PoolExhausted:
      return "PoolExhausted";
    case ErrorCode::PreconditionViolated:
      return "PreconditionViolated";
    case ErrorCode::CheckpointCorrupt:
      return "CheckpointCorrupt";
    case ErrorCode::DeadlineExceeded:
      return "DeadlineExceeded";
    case ErrorCode::Cancelled:
      return "Cancelled";
    case ErrorCode::Overloaded:
      return "Overloaded";
    case ErrorCode::SolveStalled:
      return "SolveStalled";
    case ErrorCode::WorkerLost:
      return "WorkerLost";
  }
  return "?";
}

Error::Error(ErrorCode code, const std::string& what)
    : std::runtime_error("[" + std::string(to_string(code)) + "] " + what),
      code_(code) {}

namespace detail {

void throw_check_failure(const char* cond, const char* file, int line,
                         const std::string& msg) {
  std::ostringstream oss;
  oss << "PMG_CHECK failed: (" << cond << ") at " << file << ":" << line;
  if (!msg.empty()) oss << " — " << msg;
  throw Error(oss.str());
}

void throw_check_failure(const char* cond, const char* file, int line,
                         ErrorCode code, const std::string& msg) {
  std::ostringstream oss;
  oss << "PMG_CHECK failed: (" << cond << ") at " << file << ":" << line;
  if (!msg.empty()) oss << " — " << msg;
  throw Error(code, oss.str());
}

}  // namespace detail
}  // namespace polymg
