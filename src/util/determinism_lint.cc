#include "util/determinism_lint.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "util/logging.h"

namespace msopds {
namespace {

namespace fs = std::filesystem;

/// One source line in both raw form (markers live in comments) and
/// code-only form (comments and string/char literals blanked out, so
/// rule patterns never match documentation or log text).
struct SourceLine {
  std::string raw;
  std::string code;
};

/// Strips `// ...`, `/* ... */` (tracking state across lines), and the
/// contents of string/char literals. Literal delimiters are kept so the
/// code shape survives; escapes are honored.
std::vector<SourceLine> StripComments(const std::string& text) {
  std::vector<SourceLine> lines;
  std::string raw;
  std::string code;
  bool in_block = false;
  bool in_string = false;
  bool in_char = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\n') {
      // Line comments and literals never span lines in this codebase
      // (no raw strings in src/); block comments do.
      in_string = in_char = false;
      lines.push_back({raw, code});
      raw.clear();
      code.clear();
      continue;
    }
    raw += c;
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (in_block) {
      if (c == '*' && next == '/') {
        in_block = false;
        raw += '/';
        ++i;
      }
      continue;
    }
    if (in_string) {
      if (c == '\\' && next != '\0') {
        raw += next;
        ++i;
      } else if (c == '"') {
        in_string = false;
        code += '"';
      }
      continue;
    }
    if (in_char) {
      if (c == '\\' && next != '\0') {
        raw += next;
        ++i;
      } else if (c == '\'') {
        in_char = false;
        code += '\'';
      }
      continue;
    }
    if (c == '/' && next == '/') {
      // Consume the rest of the line as a comment (kept in raw).
      while (i + 1 < text.size() && text[i + 1] != '\n') raw += text[++i];
      continue;
    }
    if (c == '/' && next == '*') {
      in_block = true;
      raw += '*';
      ++i;
      continue;
    }
    if (c == '"') {
      in_string = true;
      code += c;
      continue;
    }
    if (c == '\'') {
      // Digit separators ('1'000') do not occur in src/; treat every
      // quote as a char literal open.
      in_char = true;
      code += c;
      continue;
    }
    code += c;
  }
  if (!raw.empty() || !code.empty()) lines.push_back({raw, code});
  return lines;
}

bool Contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

bool AllowedBy(const std::vector<SourceLine>& lines, size_t index,
               const std::string& marker) {
  if (Contains(lines[index].raw, marker.c_str())) return true;
  return index > 0 && Contains(lines[index - 1].raw, marker.c_str());
}

// --- rule 1: raw-sync -------------------------------------------------------

const std::regex kRawSyncRe(
    R"(std::(mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|scoped_lock)\b)"
    R"(|#\s*include\s*<(mutex|condition_variable|shared_mutex)>)");

void CheckRawSync(const std::string& rel, const std::vector<SourceLine>& lines,
                  LintReport* report) {
  if (rel == "util/sync.h") return;  // the one sanctioned home
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!std::regex_search(lines[i].code, kRawSyncRe)) continue;
    if (AllowedBy(lines, i, "determinism-lint: allow(raw-sync)")) continue;
    report->findings.push_back(
        {rel, static_cast<int64_t>(i + 1), "raw-sync",
         "raw synchronization primitive outside util/sync.h; use the "
         "annotated Mutex/MutexLock/CondVar wrappers"});
  }
}

// --- rule 2: ambient-rng ----------------------------------------------------

// `time(` must not be preceded by an identifier char, '.', '>', or ':'
// so steady_clock::time_point, MicrosSince(...), obj.time(...) and
// my_time(...) stay legal while ::time(nullptr) and bare time(0) are
// caught.
const std::regex kAmbientRngRe(
    R"(std::rand\b|\bsrand\s*\(|\brandom_device\b|(^|[^A-Za-z0-9_.>:])time\s*\()");

void CheckAmbientRng(const std::string& rel,
                     const std::vector<SourceLine>& lines,
                     LintReport* report) {
  if (rel == "util/rng.h" || rel == "util/rng.cc") return;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!std::regex_search(lines[i].code, kAmbientRngRe)) continue;
    if (AllowedBy(lines, i, "determinism-lint: allow(ambient-rng)")) continue;
    report->findings.push_back(
        {rel, static_cast<int64_t>(i + 1), "ambient-rng",
         "ambient randomness/time source; all nondeterminism must flow "
         "through seed-driven util/rng streams"});
  }
}

// --- rule 3: unordered-iteration --------------------------------------------

// Declarations like `std::unordered_map<K, V> name` (file-local
// heuristic: parameters and members count too — iterating either is
// equally order-sensitive). The template argument list is matched by
// scanning to the balanced '>'.
std::vector<std::string> UnorderedContainerNames(
    const std::vector<SourceLine>& lines) {
  std::vector<std::string> names;
  for (const SourceLine& line : lines) {
    const std::string& code = line.code;
    for (const char* kind : {"unordered_map", "unordered_set"}) {
      size_t pos = 0;
      while ((pos = code.find(kind, pos)) != std::string::npos) {
        size_t at = pos + std::strlen(kind);
        pos = at;
        if (at >= code.size() || code[at] != '<') continue;
        int depth = 0;
        while (at < code.size()) {
          if (code[at] == '<') ++depth;
          if (code[at] == '>' && --depth == 0) break;
          ++at;
        }
        if (at >= code.size()) continue;  // args span lines: give up
        ++at;
        while (at < code.size() &&
               (std::isspace(static_cast<unsigned char>(code[at])) ||
                code[at] == '&' || code[at] == '*')) {
          ++at;
        }
        size_t end = at;
        while (end < code.size() &&
               (std::isalnum(static_cast<unsigned char>(code[end])) ||
                code[end] == '_')) {
          ++end;
        }
        if (end > at) names.push_back(code.substr(at, end - at));
      }
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

void CheckUnorderedIteration(const std::string& rel,
                             const std::vector<SourceLine>& lines,
                             LintReport* report) {
  const std::vector<std::string> names = UnorderedContainerNames(lines);
  if (names.empty()) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    const size_t colon = code.find(" : ");
    if (colon == std::string::npos || !Contains(code, "for")) continue;
    if (!std::regex_search(code, std::regex(R"(\bfor\s*\()"))) continue;
    for (const std::string& name : names) {
      if (!std::regex_search(
              code.substr(colon),
              std::regex(std::string(R"(:\s*\*?)") + name + R"(\s*\))"))) {
        continue;
      }
      if (AllowedBy(lines, i, "determinism-lint: order-insensitive") ||
          AllowedBy(lines, i,
                    "determinism-lint: allow(unordered-iteration)")) {
        continue;
      }
      report->findings.push_back(
          {rel, static_cast<int64_t>(i + 1), "unordered-iteration",
           "range-for over unordered container '" + name +
               "': hash order must not feed output or accumulation "
               "order (sort the keys, or annotate "
               "'// determinism-lint: order-insensitive' if commutative)"});
    }
  }
}

// --- rule 4: raw-simd -------------------------------------------------------

// Vendor intrinsics and vector types: the x86 <immintrin.h> family and
// its _mm/_mm256/_mm512 identifiers, and the NEON <arm_neon.h> header
// with its v*q_* intrinsics and NxM_t lane types. Hand-vectorized code
// is allowed exactly one home — tensor/simd.h — where every backend is
// forced onto the shared fixed-lane reduction schedule (DESIGN.md §14);
// intrinsics sprinkled anywhere else can silently change associativity
// and break the bit-exactness contract between backends.
const std::regex kRawSimdRe(
    R"(#\s*include\s*<([a-z]+intrin|arm_neon|x86intrin)\.h>)"
    R"(|\b_mm(256|512)?_[a-z0-9_]+\s*\()"
    R"(|\b__m(128|256|512)[di]?\b)"
    R"(|\bv[a-z0-9_]+q?_[fsu](8|16|32|64)\s*\()"
    R"(|\b(float|int|uint|poly)(8|16|32|64)x(2|4|8|16)(x(2|3|4))?_t\b)");

void CheckRawSimd(const std::string& rel, const std::vector<SourceLine>& lines,
                  LintReport* report) {
  if (rel == "tensor/simd.h") return;  // the one sanctioned home
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!std::regex_search(lines[i].code, kRawSimdRe)) continue;
    if (AllowedBy(lines, i, "determinism-lint: allow(raw-simd)")) continue;
    if (AllowedBy(lines, i, "lint:allow-simd")) continue;
    report->findings.push_back(
        {rel, static_cast<int64_t>(i + 1), "raw-simd",
         "vendor SIMD intrinsic outside tensor/simd.h; route vector code "
         "through the dispatch wrappers so every backend shares the "
         "fixed-lane reduction schedule"});
  }
}

// --- rule 5: unguarded-member -----------------------------------------------

struct ClassScope {
  std::string name;
  int depth = 0;           // brace depth of the class body
  bool owns_mutex = false;
  std::vector<size_t> member_lines;
};

const std::regex kClassDeclRe(R"((^|[^\w])(class|struct)\s+([A-Za-z_]\w*))");
const std::regex kMutexMemberRe(R"((^|[^\w:])Mutex\s+\w+)");
const std::regex kMemberNameRe(
    R"(([A-Za-z_]\w*)\s*(\[\w*\]\s*)?(=[^;]*|\{[^;]*\})?;\s*$)");

bool MemberLineExempt(const std::string& code, const std::string& raw) {
  static const char* const kExemptTokens[] = {
      "MSOPDS_GUARDED_BY",  "MSOPDS_PT_GUARDED_BY", "std::atomic",
      "CondVar",            "std::thread",          "static ",
      "constexpr ",         "using ",               "typedef ",
      "friend ",            "= delete",             "= default",
      "enum ",              "MSOPDS_REQUIRES",      "MSOPDS_EXCLUDES",
      "MSOPDS_ACQUIRE",     "MSOPDS_RELEASE",
      // Nested forward declarations ("struct Job;") are not members.
      "class ",             "struct ",
  };
  for (const char* token : kExemptTokens) {
    if (Contains(code, token)) return true;
  }
  if (Contains(raw, "determinism-lint: unguarded(")) return true;
  // Mutexes themselves (the capability) and const members (immutable
  // after construction) need no guard.
  if (std::regex_search(code, kMutexMemberRe)) return true;
  if (std::regex_search(code, std::regex(R"(^\s*(mutable\s+)?const\s)"))) {
    return true;
  }
  return false;
}

void CheckUnguardedMembers(const std::string& rel,
                           const std::vector<SourceLine>& lines,
                           LintReport* report) {
  std::vector<ClassScope> stack;
  std::vector<ClassScope> closed;
  int depth = 0;
  bool pending_class = false;
  std::string pending_name;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    std::smatch m;
    if (std::regex_search(code, m, kClassDeclRe) &&
        !Contains(code, ";")) {  // skip forward declarations
      pending_class = true;
      pending_name = m[3];
    }
    const int depth_at_line_start = depth;
    // Candidate member line: directly inside a class body, before any
    // brace movement on this line shifts the depth.
    if (!stack.empty() && stack.back().depth == depth_at_line_start &&
        !pending_class) {
      ClassScope& scope = stack.back();
      if (std::regex_search(code, kMutexMemberRe) &&
          Contains(code, ";")) {
        scope.owns_mutex = true;
      }
      scope.member_lines.push_back(i);
    }
    for (const char c : code) {
      if (c == '{') {
        ++depth;
        if (pending_class) {
          stack.push_back({pending_name, depth, false, {}});
          pending_class = false;
        }
      } else if (c == '}') {
        if (!stack.empty() && stack.back().depth == depth) {
          closed.push_back(std::move(stack.back()));
          stack.pop_back();
        }
        --depth;
      }
    }
  }
  while (!stack.empty()) {  // unbalanced file: still report what we saw
    closed.push_back(std::move(stack.back()));
    stack.pop_back();
  }
  for (const ClassScope& scope : closed) {
    if (!scope.owns_mutex) continue;
    for (const size_t i : scope.member_lines) {
      const std::string& code = lines[i].code;
      // Function declarations and nested-scope closers end in ");",
      // ") const;", "}" etc.; member variables end with ';' after a
      // name or initializer.
      std::smatch m;
      if (!std::regex_search(code, m, kMemberNameRe)) continue;
      if (std::regex_search(code, std::regex(R"(\)\s*(const\s*)?;\s*$)"))) {
        continue;  // function declaration
      }
      if (MemberLineExempt(code, lines[i].raw)) continue;
      report->findings.push_back(
          {rel, static_cast<int64_t>(i + 1), "unguarded-member",
           "member '" + std::string(m[1]) + "' of mutex-owning class '" +
               scope.name +
               "' lacks MSOPDS_GUARDED_BY (or a "
               "'// determinism-lint: unguarded(<why>)' justification)"});
    }
  }
}

// --- rule 6: blocking-wait --------------------------------------------------

// No code may park a thread without a deadline: a missing wakeup becomes
// a hang instead of a slowdown. Condition-variable waits go through
// CondVar::WaitFor/WaitUntil; a bare Wait() (or the underlying std wait)
// carries `// lint:allow-blocking-wait` naming the contract that bounds
// it (pool lifecycle, grid progress, the engine resolving every promise).
// A future's `.get()`/`.wait()` on a call result is checked only in files
// that include <future>, so smart-pointer `.get()` stays legal elsewhere.
const std::regex kBlockingWaitRe(R"(\.(wait|Wait)\()");
const std::regex kFutureWaitRe(R"(\)\.(get|wait)\(\))");
const std::regex kFutureIncludeRe(R"(^\s*#\s*include\s*<future>)");

void CheckBlockingWait(const std::string& rel,
                       const std::vector<SourceLine>& lines,
                       LintReport* report) {
  const bool uses_future =
      std::any_of(lines.begin(), lines.end(), [](const SourceLine& line) {
        return std::regex_search(line.code, kFutureIncludeRe);
      });
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!std::regex_search(lines[i].code, kBlockingWaitRe) &&
        !(uses_future && std::regex_search(lines[i].code, kFutureWaitRe))) {
      continue;
    }
    if (AllowedBy(lines, i, "determinism-lint: allow(blocking-wait)")) continue;
    if (AllowedBy(lines, i, "lint:allow-blocking-wait")) continue;
    report->findings.push_back(
        {rel, static_cast<int64_t>(i + 1), "blocking-wait",
         "deadline-less wait; use CondVar::WaitFor/WaitUntil or annotate "
         "'// lint:allow-blocking-wait' naming the contract that bounds it"});
  }
}

}  // namespace

LintReport RunDeterminismLint(const std::string& src_root) {
  LintReport report;
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(src_root, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".cc") files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    std::ifstream in(path);
    if (!in) continue;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::vector<SourceLine> lines = StripComments(buffer.str());
    const std::string rel =
        fs::path(path).lexically_relative(src_root).generic_string();
    ++report.files_scanned;
    report.checks_run += kNumLintRules;
    CheckRawSync(rel, lines, &report);
    CheckAmbientRng(rel, lines, &report);
    CheckUnorderedIteration(rel, lines, &report);
    CheckRawSimd(rel, lines, &report);
    CheckUnguardedMembers(rel, lines, &report);
    CheckBlockingWait(rel, lines, &report);
  }
  return report;
}

std::string FormatLintReport(const LintReport& report) {
  std::ostringstream out;
  for (const LintFinding& finding : report.findings) {
    out << finding.file << ":" << finding.line << ": [" << finding.rule
        << "] " << finding.message << "\n";
  }
  out << "determinism-lint: " << report.files_scanned << " file(s), "
      << report.checks_run << " check(s), " << report.findings.size()
      << " finding(s)\n";
  return out.str();
}

}  // namespace msopds
