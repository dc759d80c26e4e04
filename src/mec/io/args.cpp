#include "mec/io/args.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "mec/common/error.hpp"

namespace mec::io {

Args Args::parse(const std::vector<std::string>& argv) {
  Args out;
  std::size_t i = 0;
  if (i < argv.size() && argv[i].rfind("--", 0) != 0) {
    out.command_ = argv[i];
    ++i;
  }
  for (; i < argv.size(); ++i) {
    const std::string& token = argv[i];
    if (token.rfind("--", 0) != 0)
      throw RuntimeError("unexpected positional argument: " + token);
    std::string name = token.substr(2);
    std::string value = "true";
    bool bare = true;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      bare = false;
    } else if (i + 1 < argv.size() && argv[i + 1].rfind("--", 0) != 0) {
      value = argv[++i];
      bare = false;
    }
    if (name.empty()) throw RuntimeError("empty flag name");
    if (out.flags_.contains(name))
      throw RuntimeError("duplicate flag: --" + name);
    out.flags_[name] = value;
    if (bare) out.bare_.insert(name);
  }
  return out;
}

bool Args::has(const std::string& name) const {
  return flags_.contains(name);
}

bool Args::was_bare(const std::string& name) const {
  return bare_.contains(name);
}

std::string Args::get_string(const std::string& name,
                             const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::string Args::get_path(const std::string& name,
                           const std::string& fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (bare_.contains(name))
    throw RuntimeError("flag --" + name +
                       " expects a value (e.g. --" + name + "=FILE)");
  return it->second;
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    throw RuntimeError("flag --" + name + " expects a number, got '" +
                       it->second + "'");
  }
}

long Args::get_long(const std::string& name, long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const long v = std::stol(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    // "1e6"-style scientific notation: accepted when it denotes an exact
    // integer that a long (and a double mantissa) can represent.
    try {
      std::size_t pos = 0;
      const double v = std::stod(it->second, &pos);
      if (pos == it->second.size() && std::isfinite(v) &&
          v == std::floor(v) &&
          v >= static_cast<double>(std::numeric_limits<long>::min()) &&
          v <= 9.2233720368547738e18 /* below LONG_MAX rounding */ &&
          static_cast<double>(static_cast<long>(v)) == v)
        return static_cast<long>(v);
    } catch (const std::exception&) {
    }
    throw RuntimeError("flag --" + name + " expects an integer, got '" +
                       it->second + "'");
  }
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second == "true" || it->second == "1" || it->second == "yes")
    return true;
  if (it->second == "false" || it->second == "0" || it->second == "no")
    return false;
  throw RuntimeError("flag --" + name + " expects a boolean, got '" +
                     it->second + "'");
}

std::size_t Args::get_count(const std::string& name, std::size_t fallback,
                            std::size_t min, std::size_t max) const {
  if (!has(name)) return fallback;
  const long value = get_long(name, 0);
  if (value >= 0 && static_cast<std::size_t>(value) >= min &&
      static_cast<std::size_t>(value) <= max)
    return static_cast<std::size_t>(value);
  std::ostringstream os;
  os << "--" << name << " is " << value << ", expected an integer ";
  if (max == std::numeric_limits<std::size_t>::max())
    os << ">= " << min;
  else
    os << "in [" << min << ", " << max << "]";
  throw RuntimeError(os.str());
}

void Args::reject_unknown(const std::set<std::string>& known) const {
  for (const auto& [name, value] : flags_)
    if (!known.contains(name))
      throw RuntimeError("unknown flag: --" + name);
}

}  // namespace mec::io
