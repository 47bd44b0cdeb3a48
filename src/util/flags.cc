#include "util/flags.h"

#include <cstdio>

#include "util/string_util.h"

namespace msopds {

FlagSet::FlagSet(std::string_view program)
    : program_(program.substr(program.rfind('/') + 1)) {}

std::string FlagSet::IntForm(const char* noun, int64_t min, int64_t max) {
  if (max == kNoMax) {
    return StrFormat("%s >= %lld", noun, static_cast<long long>(min));
  }
  return StrFormat("%s in [%lld, %lld]", noun, static_cast<long long>(min),
                   static_cast<long long>(max));
}

bool FlagSet::ParseIntIn(std::string_view text, int64_t min, int64_t max,
                         int64_t* value) {
  return ParseInt64(text, value) && *value >= min && *value <= max;
}

std::vector<std::string_view> FlagSet::SplitList(std::string_view text) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  for (size_t comma = text.find(','); comma != std::string_view::npos;
       comma = text.find(',', start)) {
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  parts.push_back(text.substr(start));
  return parts;
}

void FlagSet::Add(std::string name, std::string form, bool is_switch,
                  std::function<bool(std::string_view)> set) {
  flags_.push_back({std::move(name), std::move(form), is_switch,
                    std::move(set)});
}

void FlagSet::Double(std::string name, double* value, double min,
                     double max) {
  const std::string form =
      max == std::numeric_limits<double>::max()
          ? StrFormat("a number >= %g", min)
          : StrFormat("a number in [%g, %g]", min, max);
  Add(std::move(name), form, false, [value, min, max](std::string_view text) {
    double parsed = 0.0;
    // NaN fails both comparisons; infinities fail the finite bounds.
    if (!ParseDouble(text, &parsed) || !(parsed >= min && parsed <= max)) {
      return false;
    }
    *value = parsed;
    return true;
  });
}

void FlagSet::String(std::string name, std::string* value) {
  Add(std::move(name), "any text", false, [value](std::string_view text) {
    *value = std::string(text);
    return true;
  });
}

void FlagSet::StringList(std::string name, std::vector<std::string>* value) {
  Add(std::move(name), "a comma list of non-empty names", false,
      [value](std::string_view text) {
        std::vector<std::string> parsed;
        for (std::string_view part : SplitList(text)) {
          if (part.empty()) return false;
          parsed.emplace_back(part);
        }
        *value = std::move(parsed);
        return true;
      });
}

void FlagSet::Choice(std::string name, std::string* value,
                     std::vector<std::string> choices) {
  std::string form = "one of";
  for (size_t i = 0; i < choices.size(); ++i) {
    form += (i == 0 ? " " : ", ") + choices[i];
  }
  Add(std::move(name), form, false,
      [value, choices = std::move(choices)](std::string_view text) {
        for (const std::string& choice : choices) {
          if (text == choice) {
            *value = choice;
            return true;
          }
        }
        return false;
      });
}

void FlagSet::Bool(std::string name, bool* value) {
  Add(std::move(name), "0 or 1", true, [value](std::string_view text) {
    if (text != "0" && text != "1") return false;
    *value = text == "1";
    return true;
  });
}

const FlagSet::Flag* FlagSet::Find(std::string_view name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

std::string FlagSet::Names() const {
  std::string names;
  for (const Flag& flag : flags_) {
    names += (names.empty() ? "" : ", ") + flag.name;
  }
  return names.empty() ? "no arguments" : names;
}

Status FlagSet::Parse(int argc, char** argv) const {
  auto positionals = flags_.begin();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Flag* flag = nullptr;
    std::string_view value = arg;
    if (arg.rfind("--", 0) == 0) {
      const size_t equals = arg.find('=');
      const std::string_view name = arg.substr(0, equals);
      flag = Find(name);
      if (flag == nullptr) {
        return Status::InvalidArgument(program_ + " does not take " +
                                       std::string(name) + "; it takes " +
                                       Names());
      }
      if (equals != std::string_view::npos) {
        value = arg.substr(equals + 1);
      } else if (flag->is_switch) {
        value = "1";
      } else {
        return Status::InvalidArgument(program_ + ": " + flag->name +
                                       " needs a value: " + flag->name +
                                       "=<" + flag->form + ">");
      }
    } else {
      positionals = std::find_if(positionals, flags_.end(), [](const Flag& f) {
        return f.name.rfind("--", 0) != 0;
      });
      if (positionals == flags_.end()) {
        return Status::InvalidArgument(program_ + " does not take '" +
                                       std::string(arg) + "'; it takes " +
                                       Names());
      }
      flag = &*positionals++;
    }
    if (!flag->set(value)) {
      return Status::InvalidArgument(program_ + ": " + flag->name + "=" +
                                     std::string(value) + ": expected " +
                                     flag->form);
    }
  }
  return Status::Ok();
}

int UsageError(const Status& status) {
  std::fprintf(stderr, "%s\n", status.message().c_str());
  return 2;
}

}  // namespace msopds
