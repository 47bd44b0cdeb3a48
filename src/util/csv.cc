#include "util/csv.h"

#include <fstream>

#include "util/string_util.h"

namespace msopds {

Status ForEachDelimitedRow(
    const std::string& path, char delimiter,
    const std::function<Status(const DelimitedRow& row, int64_t byte_offset)>&
        fn) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  DelimitedRow row;
  std::string line;
  int64_t offset = 0;
  while (std::getline(in, line)) {
    const int64_t line_offset = offset;
    // +1 for the newline getline consumed; if the final line has no
    // trailing newline there is no subsequent callback to observe it.
    offset += static_cast<int64_t>(line.size()) + 1;
    ++row.line;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    row.fields = StrSplit(stripped, delimiter);
    const Status status = fn(row, line_offset);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status WriteDelimited(const std::string& path,
                      const std::vector<std::vector<std::string>>& rows,
                      char delimiter) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      MSOPDS_CHECK(row[i].find(delimiter) == std::string::npos &&
                   row[i].find('\n') == std::string::npos)
          << "field contains delimiter or newline: " << row[i];
      if (i > 0) out << delimiter;
      out << row[i];
    }
    out << '\n';
  }
  return Status::Ok();
}

}  // namespace msopds
