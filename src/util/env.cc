#include "util/env.h"

#include <cstdlib>
#include <cstring>

#include "util/logging.h"
#include "util/string_util.h"

namespace msopds {

bool ParseEnvSwitch(const char* name, const char* value, bool fallback) {
  if (value == nullptr) return fallback;
  if (std::strcmp(value, "0") == 0) return false;
  if (std::strcmp(value, "1") == 0) return true;
  MSOPDS_LOG(Warning) << "ignoring " << name << "='" << value
                      << "': expected 0 or 1; keeping " << (fallback ? 1 : 0);
  return fallback;
}

int64_t ParseEnvCount(const char* name, const char* value, int64_t max,
                      int64_t fallback) {
  if (value == nullptr) return fallback;
  int64_t parsed = 0;
  if (ParseInt64(value, &parsed) && parsed >= 1 && parsed <= max) {
    return parsed;
  }
  MSOPDS_LOG(Warning) << "ignoring " << name << "='" << value
                      << "': expected an integer in [1, " << max
                      << "]; keeping " << fallback;
  return fallback;
}

bool EnvSwitch(const char* name, bool fallback) {
  return ParseEnvSwitch(name, std::getenv(name), fallback);
}

int64_t EnvCount(const char* name, int64_t max, int64_t fallback) {
  return ParseEnvCount(name, std::getenv(name), max, fallback);
}

}  // namespace msopds
