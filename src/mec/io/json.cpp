#include "mec/io/json.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

namespace mec::io {

Json Json::boolean(bool value) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = value;
  return j;
}

Json Json::number(double value) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = value;
  return j;
}

Json Json::integer(long long value) {
  Json j;
  j.kind_ = Kind::kInteger;
  j.integer_ = value;
  return j;
}

Json Json::string(std::string value) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(value);
  return j;
}

Json Json::object(std::map<std::string, Json> members) {
  Json j;
  j.kind_ = Kind::kObject;
  j.object_ = std::move(members);
  return j;
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kInteger: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld", integer_);
      out += buf;
      break;
    }
    case Kind::kNumber: {
      if (!std::isfinite(number_)) {
        out += "null";  // JSON has no NaN/Inf
        break;
      }
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", number_);
      out += buf;
      break;
    }
    case Kind::kString:
      out += '"';
      out += json_escape(string_);
      out += '"';
      break;
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        out += '"';
        out += json_escape(key);
        out += "\":";
        if (indent > 0) out += ' ';
        value.write(out, indent, depth + 1);
      }
      if (!object_.empty()) newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

}  // namespace mec::io
