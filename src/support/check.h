// Lightweight runtime-check utilities used across the library.
//
// CHIMERA_CHECK is an always-on invariant check (unlike assert it survives
// NDEBUG builds): pipeline-schedule bugs are silent data-corruption bugs in a
// training system, so we fail fast with a readable message instead.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace chimera {

/// Thrown when an internal invariant or a user-supplied configuration is
/// violated. Carries a human-readable description of the failed condition.
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}
}  // namespace detail

}  // namespace chimera

#define CHIMERA_CHECK(cond)                                              \
  do {                                                                   \
    if (!(cond))                                                         \
      ::chimera::detail::check_failed(#cond, __FILE__, __LINE__, "");    \
  } while (0)

// `msg` is a `<<` chain, so it cannot be parenthesized.
#define CHIMERA_CHECK_MSG(cond, msg)                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::ostringstream chimera_check_os_;                              \
      chimera_check_os_ << msg; /* NOLINT(bugprone-macro-parentheses) */ \
      ::chimera::detail::check_failed(#cond, __FILE__, __LINE__,         \
                                      chimera_check_os_.str());          \
    }                                                                    \
  } while (0)
