#include "support/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace sgl {

std::string json_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20U) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  // Shortest round-trip among %.15g, %.16g and %.17g: try increasing
  // precision until parsing the text back yields the exact double (17
  // significant digits always suffice).  to_chars/from_chars are the
  // locale-free equivalents of snprintf("%.*g")/strtod, byte for byte.
  std::to_chars_result written{};
  for (const int precision : {15, 16, 17}) {
    written = std::to_chars(buffer, buffer + sizeof buffer, value,
                            std::chars_format::general, precision);
    double parsed = 0.0;
    std::from_chars(buffer, written.ptr, parsed);
    if (parsed == value) break;
  }
  return {buffer, written.ptr};
}

json_writer::json_writer(std::ostream& os, int indent) : os_{os}, indent_{indent} {}

void json_writer::newline_indent() {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size() * static_cast<std::size_t>(indent_); ++i) {
    os_ << ' ';
  }
}

void json_writer::before_value() {
  if (stack_.empty()) return;  // top-level value
  level& top = stack_.back();
  if (!top.is_array && !have_key_) {
    throw std::logic_error{"json_writer: object member written without a key"};
  }
  if (top.is_array) {
    if (!top.first) os_ << ',';
    top.first = false;
    newline_indent();
  }
  have_key_ = false;
}

json_writer& json_writer::key(std::string_view k) {
  if (stack_.empty() || stack_.back().is_array || have_key_) {
    throw std::logic_error{"json_writer: key() outside an object"};
  }
  if (!stack_.back().first) os_ << ',';
  stack_.back().first = false;
  newline_indent();
  os_ << '"' << json_escape(k) << "\":" << (indent_ > 0 ? " " : "");
  have_key_ = true;
  return *this;
}

json_writer& json_writer::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back({.is_array = false});
  return *this;
}

json_writer& json_writer::end_object() {
  if (stack_.empty() || stack_.back().is_array || have_key_) {
    throw std::logic_error{"json_writer: mismatched end_object"};
  }
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) newline_indent();
  os_ << '}';
  return *this;
}

json_writer& json_writer::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back({.is_array = true});
  return *this;
}

json_writer& json_writer::end_array() {
  if (stack_.empty() || !stack_.back().is_array) {
    throw std::logic_error{"json_writer: mismatched end_array"};
  }
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) newline_indent();
  os_ << ']';
  return *this;
}

json_writer& json_writer::value(double v) {
  before_value();
  os_ << json_number(v);
  return *this;
}

json_writer& json_writer::value(std::int64_t v) {
  before_value();
  os_ << v;
  return *this;
}

json_writer& json_writer::value(std::uint64_t v) {
  before_value();
  os_ << v;
  return *this;
}

json_writer& json_writer::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  return *this;
}

json_writer& json_writer::value(std::string_view v) {
  before_value();
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

json_writer& json_writer::null() {
  before_value();
  os_ << "null";
  return *this;
}

json_writer& json_writer::raw(std::string_view text) {
  before_value();
  os_ << text;
  return *this;
}

}  // namespace sgl
