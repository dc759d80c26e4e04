// Minimal JSON value builder/serializer for experiment outputs.
//
// The benches and CLI can export results as machine-readable JSON without an
// external dependency.  Build values with the static factories, serialize
// with dump().  Numbers are emitted with enough precision to round-trip
// doubles; non-finite numbers serialize as null (JSON has no NaN/Inf).
#pragma once

#include <map>
#include <string>

namespace mec::io {

/// An immutable JSON value (null, bool, number, string, object).
class Json {
 public:
  Json() : kind_(Kind::kNull) {}  // null

  static Json boolean(bool value);
  static Json number(double value);
  static Json integer(long long value);
  static Json string(std::string value);
  static Json object(std::map<std::string, Json> members);

  /// Serializes; `indent` > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

 private:
  enum class Kind { kNull, kBool, kNumber, kInteger, kString, kObject };
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  long long integer_ = 0;
  std::string string_;
  std::map<std::string, Json> object_;

  void write(std::string& out, int indent, int depth) const;
};

/// Escapes a string per RFC 8259 (quotes, backslashes, control characters).
std::string json_escape(const std::string& raw);

}  // namespace mec::io
