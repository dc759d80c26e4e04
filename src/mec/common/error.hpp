// Contract checking and error reporting for the mec library.
//
// Following the C++ Core Guidelines (I.6/I.8, E.12), preconditions and
// postconditions are checked with MEC_EXPECTS / MEC_ENSURES.  Violations throw
// mec::ContractViolation (a std::logic_error): a contract violation is a
// programming error in the caller, not an environmental failure, but throwing
// keeps the library testable and usable from long-running harnesses.
//
// Environmental / numerical failures (non-convergence, invalid user-supplied
// configuration files) throw mec::RuntimeError instead.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mec {

/// Thrown when a precondition/postcondition/invariant check fails.
class ContractViolation final : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what) {}
};

/// Thrown for recoverable runtime failures (bad config, non-convergence, ...).
class RuntimeError final : public std::runtime_error {
 public:
  explicit RuntimeError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void contract_failure(std::string_view kind, std::string_view expr,
                                   std::string_view file, int line,
                                   std::string_view message);
}  // namespace detail

/// Checks one field of a run's options.  Unless `ok`, throws
/// ContractViolation naming the run, the field, the value received and the
/// accepted range: "run_closed_loop: update_period is 0, expected a value
/// > 0".  The string overload takes a value that is not a number ("set").
void check_option(bool ok, std::string_view run, std::string_view field,
                  double value, std::string_view expected);
void check_option(bool ok, std::string_view run, std::string_view field,
                  std::size_t value, std::string_view expected);
void check_option(bool ok, std::string_view run, std::string_view field,
                  std::string_view value, std::string_view expected);

}  // namespace mec

/// Precondition check: throws mec::ContractViolation when `cond` is false.
#define MEC_EXPECTS(cond)                                                     \
  do {                                                                        \
    if (!(cond))                                                              \
      ::mec::detail::contract_failure("precondition", #cond, __FILE__,        \
                                      __LINE__, "");                          \
  } while (false)

/// Precondition check with an explanatory message.
#define MEC_EXPECTS_MSG(cond, msg)                                            \
  do {                                                                        \
    if (!(cond))                                                              \
      ::mec::detail::contract_failure("precondition", #cond, __FILE__,        \
                                      __LINE__, (msg));                       \
  } while (false)

/// Postcondition check: throws mec::ContractViolation when `cond` is false.
#define MEC_ENSURES(cond)                                                     \
  do {                                                                        \
    if (!(cond))                                                              \
      ::mec::detail::contract_failure("postcondition", #cond, __FILE__,       \
                                      __LINE__, "");                          \
  } while (false)

/// Internal invariant check.
#define MEC_ASSERT(cond)                                                      \
  do {                                                                        \
    if (!(cond))                                                              \
      ::mec::detail::contract_failure("invariant", #cond, __FILE__, __LINE__, \
                                      "");                                    \
  } while (false)
