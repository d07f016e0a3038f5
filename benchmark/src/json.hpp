// Minimal JSON value with a parser and a writer: enough for the
// benchmark's own result files, which `--compare` reads back.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/expected.hpp"

namespace tlc::bench {

class Json {
 public:
  using Array = std::vector<Json>;
  /// Members in insertion order, so written files read in the order
  /// the benchmark reports.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  Json(bool value) : value_(value) {}                  // NOLINT(implicit)
  Json(double value) : value_(value) {}                // NOLINT(implicit)
  Json(std::string value) : value_(std::move(value)) {}  // NOLINT(implicit)
  Json(const char* value) : value_(std::string(value)) {}  // NOLINT(implicit)
  Json(Array value) : value_(std::move(value)) {}      // NOLINT(implicit)
  Json(Object value) : value_(std::move(value)) {}     // NOLINT(implicit)

  [[nodiscard]] static Expected<Json> parse(std::string_view text);

  /// Compact single-line form when `indent` is 0.
  [[nodiscard]] std::string dump(int indent = 0) const;

  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(value_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(value_);
  }

  [[nodiscard]] double number() const { return std::get<double>(value_); }
  [[nodiscard]] bool boolean() const { return std::get<bool>(value_); }
  [[nodiscard]] const std::string& string() const {
    return std::get<std::string>(value_);
  }
  [[nodiscard]] const Array& array() const { return std::get<Array>(value_); }
  [[nodiscard]] const Object& object() const {
    return std::get<Object>(value_);
  }

  /// Member lookup; nullptr when this is not an object or lacks `key`.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Appends an object member (this must be an object).
  Json& set(std::string key, Json value);
  /// Appends an array element (this must be an array).
  void push(Json value);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_ = nullptr;
};

}  // namespace tlc::bench
