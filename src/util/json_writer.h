#ifndef MSOPDS_UTIL_JSON_WRITER_H_
#define MSOPDS_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace msopds {

/// Minimal streaming JSON writer for exporting experiment results in a
/// machine-readable form (no third-party dependencies). Handles string
/// escaping, number formatting, and context-aware commas; nesting is
/// validated with CHECKs.
///
/// Usage:
///   JsonWriter json;
///   json.BeginObject();
///   json.Key("method").String("MSOPDS");
///   json.Key("rbar").Double(3.51);
///   json.Key("plan").BeginArray();
///   json.Int(1).Int(2);
///   json.EndArray();
///   json.EndObject();
///   std::string out = json.TakeString();
class JsonWriter {
 public:
  JsonWriter() = default;

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key; must be inside an object and followed by a
  /// value.
  JsonWriter& Key(const std::string& name);

  JsonWriter& String(const std::string& value);
  JsonWriter& Int(int64_t value);
  /// Finite values are written as the shortest text that parses back to
  /// the same double. Non-finite values are written as the strings "nan"
  /// / "inf" / "-inf" (JSON has no such literals); ParseJsonDouble()
  /// reverses the mapping.
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// Finishes and returns the document; the writer is reset. CHECK-fails
  /// if containers are still open.
  std::string TakeString();

 private:
  enum class Context { kTop, kObject, kArray };

  void BeforeValue();
  void Append(const std::string& text) { out_ += text; }

  std::string out_;
  std::vector<Context> stack_ = {Context::kTop};
  std::vector<bool> needs_comma_ = {false};
  bool pending_key_ = false;
  bool top_value_written_ = false;
};

/// Escapes a string per JSON rules (quotes not included).
std::string JsonEscape(const std::string& text);

/// Parses a raw JSON scalar token into a double: a plain number, or one
/// of the quoted "nan" / "inf" / "-inf" strings emitted by Double().
/// Returns false on any other token (including null).
bool ParseJsonDouble(const std::string& token, double* value);

}  // namespace msopds

#endif  // MSOPDS_UTIL_JSON_WRITER_H_
