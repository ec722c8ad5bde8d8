// Error handling for the rlceff library.
//
// All recoverable failures (bad arguments, non-convergence, singular systems)
// are reported by throwing Error.  ensure() is the library-wide precondition
// check; it captures the call site via std::source_location so no macro is
// needed, and it inlines to a compare with the throw kept out of line.
#ifndef RLCEFF_UTIL_ERROR_H
#define RLCEFF_UTIL_ERROR_H

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rlceff {

// Base exception for every failure the library raises on purpose.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Raised when an iterative method fails to converge within its budget.
class ConvergenceError : public Error {
public:
  explicit ConvergenceError(const std::string& what) : Error(what) {}
};

// Raised when a linear system is singular (or numerically so).
class SingularMatrixError : public Error {
public:
  explicit SingularMatrixError(const std::string& what) : Error(what) {}
};

namespace detail {

// The out-of-line half of ensure(): formats the located message and throws.
// Cold and never inlined, so the check ensure() leaves at its call site is a
// compare and a not-taken branch.
[[noreturn, gnu::cold, gnu::noinline]] inline void ensure_failed(
    std::string_view message, const std::source_location& loc) {
  throw Error(std::string(loc.file_name()) + ":" + std::to_string(loc.line()) +
              ": " + std::string(message));
}

}  // namespace detail

// Throws Error annotated with the caller's location when cond is false.
//
// The rule for callers: the success path never formats.  A literal message
// costs nothing, but an argument built with std::to_string, snprintf or
// string concatenation is built before the check runs, on every call.  When
// the message needs formatting, test the condition first and call
// ensure(false, formatted) only in the failing branch.
inline void ensure(bool cond, std::string_view message,
                   std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] detail::ensure_failed(message, loc);
}

}  // namespace rlceff

#endif  // RLCEFF_UTIL_ERROR_H
