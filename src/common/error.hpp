// Error taxonomy for qkdpp.
//
// Post-processing has two distinct failure regimes and the type system keeps
// them apart:
//   * programming-contract violations  -> std::logic_error family (bugs)
//   * run-time protocol/data failures  -> qkdpp::Error family (expected,
//     recoverable: the session aborts the current block and continues)
#pragma once

#include <stdexcept>
#include <string>

namespace qkdpp {

/// Machine-readable category for a run-time failure.
enum class ErrorCode {
  kSerialization,     ///< malformed or truncated frame
  kProtocol,          ///< message out of protocol order / wrong type
  kAuthentication,    ///< Wegman-Carter tag mismatch
  kKeyExhausted,      ///< authentication key pool ran dry
  kDecodeFailure,     ///< reconciliation could not converge
  kVerifyMismatch,    ///< post-reconciliation hash mismatch
  kQberTooHigh,       ///< parameter estimation above abort threshold
  kInsufficientKey,   ///< finite-key planner says no extractable secret
  kChannelClosed,     ///< peer hung up
  kTimeout,           ///< exchange deadline passed with no frame delivered
  kConfig,            ///< invalid run-time configuration
};

/// Human-readable name of an ErrorCode (stable, for logs and tests).
const char* to_string(ErrorCode code) noexcept;

/// Base class of all expected run-time failures in qkdpp.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& what)
      : std::runtime_error(std::string(to_string(code)) + ": " + what),
        code_(code) {}

  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Throw helper so call sites read as one line.
[[noreturn]] inline void throw_error(ErrorCode code, const std::string& what) {
  throw Error(code, what);
}

}  // namespace qkdpp

/// Precondition check: logic errors (bugs at the call site), not run-time
/// protocol failures. Kept enabled in release builds: the cost is negligible
/// next to the work the library does per call.
#define QKDPP_REQUIRE(cond, msg)                                    \
  do {                                                              \
    if (!(cond)) {                                                  \
      throw std::invalid_argument(std::string("requirement failed: ") + (msg)); \
    }                                                               \
  } while (0)
