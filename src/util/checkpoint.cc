#include "util/checkpoint.h"

#include <cmath>
#include <fstream>

#include "util/json_writer.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace msopds {
namespace {

// Minimal parser for the flat single-line JSON objects this store
// writes: string keys mapping to string / number / bool / null scalars.
// Not a general JSON parser — nested containers are rejected.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& text) : text_(text) {}

  // Parses the whole object into key -> raw value token (strings keep
  // their quotes so the caller can distinguish "1" from 1).
  Status Parse(std::unordered_map<std::string, std::string>* fields) {
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    SkipSpace();
    if (Consume('}')) return Tail();
    while (true) {
      std::string key;
      Status status = ParseString(&key);
      if (!status.ok()) return status;
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      SkipSpace();
      std::string value;
      status = ParseValueToken(&value);
      if (!status.ok()) return status;
      (*fields)[key] = std::move(value);
      SkipSpace();
      if (Consume('}')) return Tail();
      if (!Consume(',')) return Error("expected ',' or '}'");
      SkipSpace();
    }
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Error(const std::string& what) {
    return Status::InvalidArgument(
        StrFormat("%s at offset %zu", what.c_str(), pos_));
  }

  Status Tail() {
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return Status::Ok();
  }

  // Parses a quoted string, resolving the escapes JsonEscape emits.
  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          int64_t code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += h - '0';
            else if (h >= 'a' && h <= 'f') code += 10 + h - 'a';
            else if (h >= 'A' && h <= 'F') code += 10 + h - 'A';
            else return Error("bad \\u escape");
          }
          // The writer only emits \u00xx control characters.
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  // A value token: a quoted string (kept quoted) or a bare scalar up to
  // the next ',' / '}' (numbers, true/false/null).
  Status ParseValueToken(std::string* out) {
    if (pos_ < text_.size() && text_[pos_] == '"') {
      std::string inner;
      const Status status = ParseString(&inner);
      if (!status.ok()) return status;
      *out = "\"" + inner + "\"";
      return Status::Ok();
    }
    if (pos_ < text_.size() && (text_[pos_] == '{' || text_[pos_] == '[')) {
      return Error("nested containers not supported");
    }
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}') {
      ++pos_;
    }
    *out = std::string(StripWhitespace(text_.substr(start, pos_ - start)));
    if (out->empty()) return Error("empty value");
    return Status::Ok();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Prefixes `status`'s message with "context: " when context is set, so a
// schema error names the file and row it came from.
Status WithContext(const std::string& context, const Status& status) {
  if (context.empty() || status.ok()) return status;
  return Status(status.code(), context + ": " + status.message());
}

}  // namespace

std::string CellRecordToJson(const CellRecord& record) {
  JsonWriter json;
  json.BeginObject();
  json.Key("key").String(record.key);
  json.Key("ok").Bool(record.ok);
  json.Key("rbar").Double(record.mean_average_rating);
  json.Key("hr").Double(record.mean_hit_rate);
  json.Key("repeats").Int(record.repeats);
  json.Key("unhealthy_repeats").Int(record.unhealthy_repeats);
  json.Key("threads").Int(record.threads);
  json.Key("worker").Int(record.worker_id);
  json.Key("error").String(record.error);
  json.EndObject();
  return json.TakeString();
}

namespace {

Status FieldError(const std::string& name) {
  return Status::InvalidArgument("bad or missing field '" + name + "'");
}

StatusOr<CellRecord> ParseCellRecordImpl(const std::string& line) {
  std::unordered_map<std::string, std::string> fields;
  FlatJsonParser parser(line);
  const Status status = parser.Parse(&fields);
  if (!status.ok()) return status;

  auto quoted = [&](const char* name, std::string* out) -> bool {
    auto it = fields.find(name);
    if (it == fields.end() || it->second.size() < 2 ||
        it->second.front() != '"' || it->second.back() != '"') {
      return false;
    }
    *out = it->second.substr(1, it->second.size() - 2);
    return true;
  };
  auto number = [&](const char* name, double* out) -> bool {
    auto it = fields.find(name);
    return it != fields.end() && ParseJsonDouble(it->second, out);
  };

  CellRecord record;
  if (!quoted("key", &record.key) || record.key.empty()) {
    return FieldError("key");
  }
  auto it = fields.find("ok");
  if (it == fields.end() || (it->second != "true" && it->second != "false")) {
    return FieldError("ok");
  }
  record.ok = it->second == "true";
  if (!number("rbar", &record.mean_average_rating)) return FieldError("rbar");
  if (!number("hr", &record.mean_hit_rate)) return FieldError("hr");
  double repeats = 0.0;
  if (!number("repeats", &repeats)) return FieldError("repeats");
  record.repeats = static_cast<int>(repeats);
  double unhealthy = 0.0;
  if (number("unhealthy_repeats", &unhealthy)) {
    record.unhealthy_repeats = static_cast<int>(unhealthy);
  }
  // Absent in records written before the parallel runtime: those ran on
  // the serial kernels, i.e. one thread.
  double threads = 1.0;
  if (number("threads", &threads)) {
    record.threads = static_cast<int>(threads);
  }
  // Absent in records written before the sweep orchestrator: those came
  // from the single-process driver, worker 0.
  double worker = 0.0;
  if (number("worker", &worker)) {
    record.worker_id = static_cast<int>(worker);
  }
  quoted("error", &record.error);
  return record;
}

}  // namespace

StatusOr<CellRecord> ParseCellRecord(const std::string& line,
                                     const std::string& context) {
  StatusOr<CellRecord> record = ParseCellRecordImpl(line);
  if (!record.ok()) return WithContext(context, record.status());
  return record;
}

CheckpointStore::CheckpointStore(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_);
  if (!in.is_open()) return;  // first run: nothing to resume
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (StripWhitespace(line).empty()) continue;
    auto record = ParseCellRecord(
        line, path_ + ":" + std::to_string(line_number));
    if (!record.ok()) {
      // A crash mid-write can leave one torn trailing line; recompute
      // that cell instead of aborting the resume.
      MSOPDS_LOG(Warning) << "dropping unreadable checkpoint record ("
                          << record.status().ToString() << ")";
      continue;
    }
    record.value().source_line = line_number;
    auto [it, inserted] =
        index_.emplace(record.value().key, records_.size());
    if (inserted) {
      records_.push_back(std::move(record).value());
    } else {
      records_[it->second] = std::move(record).value();
    }
  }
}

void CheckpointStore::Append(const CellRecord& record) {
  MSOPDS_CHECK(!record.key.empty()) << "checkpoint records need a key";
  auto [it, inserted] = index_.emplace(record.key, records_.size());
  if (inserted) {
    records_.push_back(record);
  } else {
    records_[it->second] = record;
  }
  std::ofstream out(path_, std::ios::app);
  MSOPDS_CHECK(out.is_open()) << "cannot append checkpoint to " << path_;
  out << CellRecordToJson(record) << '\n';
  out.flush();
}

}  // namespace msopds
