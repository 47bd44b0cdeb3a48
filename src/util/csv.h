#ifndef MSOPDS_UTIL_CSV_H_
#define MSOPDS_UTIL_CSV_H_

#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace msopds {

/// One parsed row plus the 1-based line it came from in the source file,
/// so loaders can report errors as "path:line: reason".
struct DelimitedRow {
  std::vector<std::string> fields;
  int64_t line = 0;
};

/// Reads a delimiter-separated file in one pass, invoking `fn` for every
/// row with the parsed row and the byte offset of the start of its line.
/// Blank lines and lines starting with '#' are skipped but still advance
/// the line counter. Returns NotFound if the file cannot be opened. The
/// row object (and the line buffer behind it) is reused between calls —
/// copy out anything that must outlive the callback. A non-OK status from
/// `fn` aborts the scan and is returned. Peak memory is one line,
/// independent of file size.
Status ForEachDelimitedRow(
    const std::string& path, char delimiter,
    const std::function<Status(const DelimitedRow& row, int64_t byte_offset)>&
        fn);

/// Writes rows as a delimiter-separated file (no quoting; fields must not
/// contain the delimiter or newlines — CHECKed).
Status WriteDelimited(const std::string& path,
                      const std::vector<std::vector<std::string>>& rows,
                      char delimiter);

}  // namespace msopds

#endif  // MSOPDS_UTIL_CSV_H_
