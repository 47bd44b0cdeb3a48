#ifndef MSOPDS_UTIL_FLAGS_H_
#define MSOPDS_UTIL_FLAGS_H_

// Command-line flags of the bench, tool and example binaries. A binary
// declares each flag once -- its name, the variable it sets and the
// values it accepts -- and FlagSet::Parse reads argv against those
// declarations:
//
//   FlagSet flags(argv[0]);
//   flags.Int("--repeats", &repeats, 1);
//   flags.Double("--fault_nan", &fault_nan, 0.0, 1.0);
//   const Status parsed = flags.Parse(argc, argv);
//   if (!parsed.ok()) return UsageError(parsed);
//
// A flag takes its value as --name=value; a Bool also takes a bare
// --name. A name without the leading "--" declares a positional argument
// instead, filled from the bare arguments in declaration order. A later
// occurrence of a flag overrides an earlier one, and a list flag's value
// replaces the default list. Numbers go through the strict parsers of
// util/string_util and ranges are inclusive. Parse returns
// InvalidArgument for a missing, malformed or out-of-range value or an
// empty list element, naming the flag, the value and the accepted form,
// and for an unknown flag, naming it and the flags the binary takes; it
// never falls back to a default.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace msopds {

class FlagSet {
 public:
  static constexpr int64_t kNoMax = std::numeric_limits<int64_t>::max();

  /// `program` is argv[0]; its file name prefixes Parse's messages.
  explicit FlagSet(std::string_view program);

  /// An integer in [min, max], stored into an int, int64_t or uint64_t.
  template <typename T>
  void Int(std::string name, T* value, int64_t min, int64_t max = kNoMax) {
    ClampToType<T>(&min, &max);
    Add(std::move(name), IntForm("an integer", min, max), false,
        [value, min, max](std::string_view text) {
          int64_t parsed = 0;
          if (!ParseIntIn(text, min, max, &parsed)) return false;
          *value = static_cast<T>(parsed);
          return true;
        });
  }

  /// A comma list of integers, each in [min, max].
  template <typename T>
  void IntList(std::string name, std::vector<T>* value, int64_t min,
               int64_t max = kNoMax) {
    ClampToType<T>(&min, &max);
    Add(std::move(name), "a comma list of " + IntForm("integers", min, max),
        false, [value, min, max](std::string_view text) {
          std::vector<T> parsed;
          for (std::string_view part : SplitList(text)) {
            int64_t element = 0;
            if (!ParseIntIn(part, min, max, &element)) return false;
            parsed.push_back(static_cast<T>(element));
          }
          *value = std::move(parsed);
          return true;
        });
  }

  /// A finite number in [min, max].
  void Double(std::string name, double* value, double min,
              double max = std::numeric_limits<double>::max());
  /// Any text, the empty string included.
  void String(std::string name, std::string* value);
  /// A comma list of non-empty names.
  void StringList(std::string name, std::vector<std::string>* value);
  /// One of `choices`.
  void Choice(std::string name, std::string* value,
              std::vector<std::string> choices);
  /// A switch: a bare --name or --name=1 sets it, --name=0 clears it.
  void Bool(std::string name, bool* value);

  /// Reads argv[1..argc) into the declared destinations, left to right.
  /// On error the destinations read so far hold their new values.
  Status Parse(int argc, char** argv) const;

 private:
  struct Flag {
    std::string name;
    /// The accepted form, e.g. "an integer in [1, 100]".
    std::string form;
    bool is_switch = false;
    /// Stores a well-formed value; false leaves the destination as is.
    std::function<bool(std::string_view)> set;
  };

  template <typename T>
  static void ClampToType(int64_t* min, int64_t* max) {
    static_assert(std::numeric_limits<T>::is_integer);
    if constexpr (std::cmp_less(std::numeric_limits<T>::max(),
                                std::numeric_limits<int64_t>::max())) {
      *max = std::min<int64_t>(*max, std::numeric_limits<T>::max());
    }
    if constexpr (std::cmp_greater(std::numeric_limits<T>::min(),
                                   std::numeric_limits<int64_t>::min())) {
      *min = std::max<int64_t>(*min, std::numeric_limits<T>::min());
    }
  }

  static std::string IntForm(const char* noun, int64_t min, int64_t max);
  static bool ParseIntIn(std::string_view text, int64_t min, int64_t max,
                         int64_t* value);
  /// The elements of a comma list; an empty element comes back empty and
  /// fails its element parser.
  static std::vector<std::string_view> SplitList(std::string_view text);

  void Add(std::string name, std::string form, bool is_switch,
           std::function<bool(std::string_view)> set);
  const Flag* Find(std::string_view name) const;
  std::string Names() const;

  std::string program_;
  std::vector<Flag> flags_;
};

/// Prints a failed Parse's message to stderr and returns 2, the exit
/// status of every binary's usage error.
int UsageError(const Status& status);

}  // namespace msopds

#endif  // MSOPDS_UTIL_FLAGS_H_
