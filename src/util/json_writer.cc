#include "util/json_writer.h"

#include <charconv>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace msopds {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  const Context context = stack_.back();
  if (context == Context::kObject) {
    MSOPDS_CHECK(pending_key_) << "object values need a Key() first";
    pending_key_ = false;
    return;
  }
  if (context == Context::kArray) {
    if (needs_comma_.back()) Append(",");
    needs_comma_.back() = true;
    return;
  }
  MSOPDS_CHECK(!top_value_written_) << "only one top-level JSON value";
  top_value_written_ = true;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  Append("{");
  stack_.push_back(Context::kObject);
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  MSOPDS_CHECK(stack_.back() == Context::kObject) << "unbalanced EndObject";
  MSOPDS_CHECK(!pending_key_) << "dangling Key() before EndObject";
  stack_.pop_back();
  needs_comma_.pop_back();
  Append("}");
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  Append("[");
  stack_.push_back(Context::kArray);
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  MSOPDS_CHECK(stack_.back() == Context::kArray) << "unbalanced EndArray";
  stack_.pop_back();
  needs_comma_.pop_back();
  Append("]");
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  MSOPDS_CHECK(stack_.back() == Context::kObject) << "Key() outside object";
  MSOPDS_CHECK(!pending_key_) << "two keys in a row";
  if (needs_comma_.back()) Append(",");
  needs_comma_.back() = true;
  Append("\"");
  Append(JsonEscape(name));
  Append("\":");
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  BeforeValue();
  Append("\"");
  Append(JsonEscape(value));
  Append("\"");
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  Append(StrFormat("%lld", static_cast<long long>(value)));
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (std::isnan(value)) {
    // JSON has no NaN/Inf literals. Checkpoint readers must be able to
    // tell "metric was NaN" (a recorded failure) from "metric missing"
    // (null), so non-finite doubles round-trip as explicit strings.
    Append("\"nan\"");
  } else if (std::isinf(value)) {
    Append(value > 0 ? "\"inf\"" : "\"-inf\"");
  } else {
    // The shortest text that parses back to the same double.
    char text[32];
    const std::to_chars_result end =
        std::to_chars(text, text + sizeof(text), value);
    out_.append(text, end.ptr);
  }
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  Append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  Append("null");
  return *this;
}

bool ParseJsonDouble(const std::string& token, double* value) {
  MSOPDS_CHECK(value != nullptr);
  if (token == "\"nan\"") {
    *value = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  if (token == "\"inf\"") {
    *value = std::numeric_limits<double>::infinity();
    return true;
  }
  if (token == "\"-inf\"") {
    *value = -std::numeric_limits<double>::infinity();
    return true;
  }
  return ParseDouble(token, value);
}

std::string JsonWriter::TakeString() {
  MSOPDS_CHECK_EQ(stack_.size(), 1u) << "unclosed JSON containers";
  MSOPDS_CHECK(!pending_key_);
  std::string out = std::move(out_);
  out_.clear();
  stack_ = {Context::kTop};
  needs_comma_ = {false};
  pending_key_ = false;
  top_value_written_ = false;
  return out;
}

}  // namespace msopds
