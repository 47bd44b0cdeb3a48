#ifndef MSOPDS_UTIL_DETERMINISM_LINT_H_
#define MSOPDS_UTIL_DETERMINISM_LINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace msopds {

/// One determinism/concurrency violation found by the linter.
struct LintFinding {
  /// Path relative to the scanned root (e.g. "serve/engine.cc").
  std::string file;
  /// 1-based line number of the offending line.
  int64_t line = 0;
  /// Rule id: "raw-sync", "ambient-rng", "unordered-iteration",
  /// "raw-simd", "unguarded-member", or "blocking-wait".
  std::string rule;
  std::string message;
};

/// Result of one linter run over a source tree.
struct LintReport {
  int64_t files_scanned = 0;
  /// Rule applications (files_scanned x number of rules): the "pass
  /// count" exported into bench JSON is checks_run - findings.
  int64_t checks_run = 0;
  std::vector<LintFinding> findings;

  bool ok() const { return findings.empty(); }
};

/// Number of rules applied per file.
constexpr int64_t kNumLintRules = 6;

/// Scans every `.h`/`.cc` under `src_root` (recursively, in sorted path
/// order) for compile-time-detectable nondeterminism (see DESIGN.md
/// §13). The rules are line-based heuristics over comment- and
/// string-stripped source:
///
///   raw-sync            std::mutex / std::condition_variable /
///                       std::lock_guard / std::unique_lock /
///                       std::scoped_lock (or their includes) anywhere
///                       but util/sync.h — all sync goes through the
///                       annotated wrappers.
///   ambient-rng         std::rand / srand / std::random_device /
///                       time(...) outside util/rng — all randomness is
///                       seed-driven through util/rng streams.
///   unordered-iteration range-for over a variable declared in the same
///                       file as unordered_map/unordered_set — hash
///                       iteration order feeding output or accumulation
///                       order breaks cross-toolchain determinism.
///                       Suppress a proven-commutative loop with a
///                       `// determinism-lint: order-insensitive`
///                       comment on the loop header or the line above.
///   raw-simd            vendor SIMD intrinsics, vector register types,
///                       or their includes (the immintrin/arm_neon
///                       headers and their intrinsic families) anywhere
///                       but tensor/simd.h — hand vectorization outside
///                       the dispatch header can change reduction
///                       associativity and break the scalar/SIMD
///                       bit-exactness contract (DESIGN.md §14).
///                       Suppress with `// lint:allow-simd` (or the
///                       generic allow marker below).
///   unguarded-member    a member of a class that owns a Mutex, with no
///                       MSOPDS_GUARDED_BY token. Members synchronized
///                       by other means carry
///                       `// determinism-lint: unguarded(<why>)`.
///                       (Atomics, const, Mutex/CondVar, std::thread,
///                       and static members are exempt.)
///   blocking-wait       `.wait(` / `.Wait(` anywhere, and a future's
///                       `).get()` / `).wait()` in files that include
///                       <future> — a wait with no deadline turns a
///                       missing wakeup into a hang. Use
///                       CondVar::WaitFor/WaitUntil, or annotate a wait
///                       whose bound is a contract with
///                       `// lint:allow-blocking-wait` (naming it).
///
/// A rule can also be suppressed line-by-line with
/// `// determinism-lint: allow(<rule>)`.
LintReport RunDeterminismLint(const std::string& src_root);

/// Renders findings one per line ("file:line: [rule] message") plus a
/// summary line; used by the CLI and tests.
std::string FormatLintReport(const LintReport& report);

}  // namespace msopds

#endif  // MSOPDS_UTIL_DETERMINISM_LINT_H_
