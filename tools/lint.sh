#!/usr/bin/env bash
# Python-free repo lint: include-guard style, float-vs-double drift in the
# tensor kernels, CHECK-macro misuse, and util headers missing from
# DESIGN.md. Exits non-zero on any finding. The comment-aware C++ rules
# (raw sync, ambient RNG, unordered iteration, raw SIMD, unguarded
# members, blocking waits) live in util/determinism_lint and run as the
# `determinism_lint_src` ctest.
# Run from anywhere: paths are resolved relative to the repo root.
set -u

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

failures=0

report() {
  # report <check-name> <file:line-ish message>
  echo "lint: [$1] $2"
  failures=$((failures + 1))
}

# --- 1. Include-guard style -------------------------------------------------
# Every header under src/ must open with an include guard derived from its
# path: src/tensor/verify.h -> MSOPDS_TENSOR_VERIFY_H_.
while IFS= read -r header; do
  rel="${header#src/}"
  guard="MSOPDS_$(echo "$rel" | tr 'a-z/.' 'A-Z__' | tr -d '-')_"
  first_ifndef=$(grep -m1 '^#ifndef' "$header" | awk '{print $2}')
  if [ "$first_ifndef" != "$guard" ]; then
    report include-guard "$header: expected guard $guard, found ${first_ifndef:-none}"
  fi
  if ! grep -q "^#define $guard\$" "$header"; then
    report include-guard "$header: missing '#define $guard'"
  fi
done < <(find src -name '*.h' | sort)

# --- 2. float drift in tensor kernels --------------------------------------
# The autodiff engine is double end-to-end; a stray float silently truncates
# second-order gradients. (float in comments/strings is also banned: cheap
# and keeps the check grep-simple.)
while IFS= read -r match; do
  report float-drift "$match (tensor kernels are double-only)"
done < <(grep -rn --include='*.h' --include='*.cc' -w 'float' src/tensor)

# --- 3. CHECK misuse --------------------------------------------------------
# Bare glog/assert-style macros: everything must go through MSOPDS_CHECK so
# failures carry the streaming context and never compile away.
while IFS= read -r match; do
  report check-misuse "$match (use MSOPDS_CHECK*)"
done < <(grep -rnE --include='*.h' --include='*.cc' \
             '(^|[^A-Z_])(CHECK|DCHECK|CHECK_EQ|CHECK_NE)\(' src \
         | grep -v 'MSOPDS_CHECK')
while IFS= read -r match; do
  report check-misuse "$match (use MSOPDS_CHECK*, not assert)"
done < <(grep -rnE --include='*.h' --include='*.cc' '(^|[^_[:alnum:]])assert\(' src)
# Side effects inside MSOPDS_CHECK read as load-bearing but look removable;
# hoist the mutation out of the check.
while IFS= read -r match; do
  report check-misuse "$match (no ++/-- side effects inside checks)"
done < <(grep -rnE --include='*.h' --include='*.cc' \
             'MSOPDS_CHECK[A-Z_]*\([^)]*(\+\+|--)' src)

# --- 4. util headers documented in DESIGN.md --------------------------------
# Every header in src/util is cross-cutting infrastructure; each must be
# referenced from DESIGN.md so the design doc stays the complete map of
# the utility layer (the doc names headers like util/sync.h).
while IFS= read -r header; do
  rel="${header#src/}"
  mod="${rel%.h}"  # DESIGN.md names modules without the extension
  if ! grep -q "$mod" DESIGN.md; then
    report design-doc "$header: not referenced in DESIGN.md (document $mod)"
  fi
done < <(find src/util -name '*.h' | sort)

# --- Summary ---------------------------------------------------------------
if [ "$failures" -ne 0 ]; then
  echo "lint: $failures finding(s)"
  exit 1
fi
echo "lint: clean"
