// Determinism/concurrency linter CLI (see util/determinism_lint.h for
// the rule list and DESIGN.md §13 for the conventions it enforces).
// Run over src/ by ctest as `determinism_lint_src` (label `lint`).
//
// Usage:
//   determinism_lint [--root=DIR] [--quiet]
//
// --root defaults to "src" relative to the current directory. Exits 0 when the tree is clean, 1 when any
// finding is reported, 2 on usage/IO errors.

#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "util/determinism_lint.h"

int main(int argc, char** argv) {
  std::string root = "src";
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(std::strlen("--root="));
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "usage: determinism_lint [--root=DIR] [--quiet]\n";
      return 2;
    }
  }
  if (!std::filesystem::is_directory(root)) {
    std::cerr << "determinism_lint: no such directory: " << root << "\n";
    return 2;
  }
  const msopds::LintReport report = msopds::RunDeterminismLint(root);
  if (!quiet || !report.ok()) {
    std::cout << msopds::FormatLintReport(report);
  }
  return report.ok() ? 0 : 1;
}
