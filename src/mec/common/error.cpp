#include "mec/common/error.hpp"

#include <sstream>

namespace mec::detail {

void contract_failure(std::string_view kind, std::string_view expr,
                      std::string_view file, int line,
                      std::string_view message) {
  std::ostringstream os;
  os << kind << " violated: (" << expr << ") at " << file << ":" << line;
  if (!message.empty()) os << " — " << message;
  throw ContractViolation(os.str());
}

}  // namespace mec::detail

namespace mec {

namespace {

template <class Value>
void check_option_value(bool ok, std::string_view run, std::string_view field,
                        const Value& value, std::string_view expected) {
  if (ok) return;
  std::ostringstream os;
  os << run << ": " << field << " is " << value << ", expected " << expected;
  throw ContractViolation(os.str());
}

}  // namespace

void check_option(bool ok, std::string_view run, std::string_view field,
                  double value, std::string_view expected) {
  check_option_value(ok, run, field, value, expected);
}

void check_option(bool ok, std::string_view run, std::string_view field,
                  std::size_t value, std::string_view expected) {
  check_option_value(ok, run, field, value, expected);
}

void check_option(bool ok, std::string_view run, std::string_view field,
                  std::string_view value, std::string_view expected) {
  check_option_value(ok, run, field, value, expected);
}

}  // namespace mec
