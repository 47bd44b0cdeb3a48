#ifndef MSOPDS_UTIL_ENV_H_
#define MSOPDS_UTIL_ENV_H_

#include <cstdint>

// The environment variables that switch the runtime, read through one
// strict grammar:
//   - a switch (MSOPDS_SIMD, MSOPDS_ARENA) is exactly "0" or "1";
//   - a count (MSOPDS_THREADS, MSOPDS_BENCH_THREADS) is a decimal integer
//     in [1, max], read by ParseInt64.
// An unset variable keeps the default. Any other value logs one warning
// that names the variable and the accepted form, and keeps the default:
// a typo never aborts a run and never reads as another setting ("4abc"
// is not 4).

namespace msopds {

/// The switch `name` with text `value` (nullptr when unset).
bool ParseEnvSwitch(const char* name, const char* value, bool fallback);

/// The count `name` with text `value` (nullptr when unset), in [1, max].
int64_t ParseEnvCount(const char* name, const char* value, int64_t max,
                      int64_t fallback);

/// ParseEnvSwitch over the process environment.
bool EnvSwitch(const char* name, bool fallback);

/// ParseEnvCount over the process environment.
int64_t EnvCount(const char* name, int64_t max, int64_t fallback);

}  // namespace msopds

#endif  // MSOPDS_UTIL_ENV_H_
