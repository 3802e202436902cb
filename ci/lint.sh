#!/usr/bin/env bash
# CI lint: documentation consistency + clang-tidy over src/ using the checks
# in .clang-tidy.  The clang-tidy half skips gracefully (exit 0) when the
# tool is not installed, so that gate only bites on runners that ship it.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build-lint}

# Docs are checked first — the checker needs no compiler.
ci/docs-check.sh

# The host-speed benchmark's own tests (percentile rule, pin checker, self
# time by layer) are plain Python and need no build either.
python3 -m unittest discover -s perfbench -p 'test_*.py'
echo "ok: perfbench harness tests pass"

# The lint file list is a recursive find, but the static-analysis subsystem
# is easy to orphan (nested directory, INTERFACE-only aggregation target) —
# assert its sources are in scope so they can never silently drop out.
files=$(find src tools -name '*.cpp' | sort)
for must in src/analysis/absint/absint.cpp src/analysis/absint/domain.cpp \
            src/analysis/absint/refine.cpp \
            src/analysis/dominators.cpp src/analysis/loops.cpp \
            src/analysis/ipa/callgraph.cpp src/analysis/ipa/ipa.cpp \
            src/analysis/ipa/sccp.cpp src/analysis/ipa/ssa.cpp \
            src/analysis/ipa/valueset.cpp \
            src/analysis/verify.cpp src/analysis/timing/cost_model.cpp \
            src/analysis/timing/loop_bounds.cpp src/analysis/timing/wcet.cpp; do
    if ! grep -qx "$must" <<< "$files"; then
        echo "FAIL: $must missing from clang-tidy coverage" >&2
        exit 1
    fi
done
echo "ok: static-analysis sources are in lint coverage"

# The unbounded-loop lint must keep its teeth: non-strict verification of
# the fixture stays clean, --strict must reject it.  Skips gracefully when
# asbr-verify has not been built (same contract as the docs metric check).
VERIFY="${VERIFY_BUILD_DIR:-build}/tools/asbr-verify"
if [[ -x "$VERIFY" ]]; then
    if ! "$VERIFY" tests/fixtures/unbounded_loop.s --all --no-schedule \
            --quiet; then
        echo "FAIL: unbounded_loop.s should verify clean without --strict" >&2
        exit 1
    fi
    if "$VERIFY" tests/fixtures/unbounded_loop.s --all --no-schedule \
            --strict --quiet > /dev/null 2>&1; then
        echo "FAIL: --strict should reject the unbounded-loop fixture" >&2
        exit 1
    fi
    echo "ok: unbounded-loop lint fires under --strict only"

    # Same contract for the dangling-.loopbound lint: the annotation names
    # an address that is no loop head, so it silently bounds nothing —
    # clean without --strict, rejected with it.
    if ! "$VERIFY" tests/fixtures/dangling_loopbound.s --all --no-schedule \
            --quiet; then
        echo "FAIL: dangling_loopbound.s should verify clean without" \
             "--strict" >&2
        exit 1
    fi
    if "$VERIFY" tests/fixtures/dangling_loopbound.s --all --no-schedule \
            --strict --quiet > /dev/null 2>&1; then
        echo "FAIL: --strict should reject the dangling-loopbound fixture" >&2
        exit 1
    fi
    strict_out=$("$VERIFY" tests/fixtures/dangling_loopbound.s --all \
        --no-schedule --strict 2>&1 || true)  # expected nonzero exit
    if ! grep -q 'dangling-loopbound' <<< "$strict_out"; then
        echo "FAIL: --strict rejection must name the dangling-loopbound" \
             "lint" >&2
        exit 1
    fi
    echo "ok: dangling-loopbound lint fires under --strict only"
else
    echo "ci/lint.sh: $VERIFY not built; skipping unbounded-loop lint check" >&2
fi

# cppcheck is a second, independent static-analysis gate; like clang-tidy it
# is blocking wherever the tool exists and skips (with a notice) where it
# does not, so the lint job never silently weakens on equipped runners.
if command -v cppcheck > /dev/null 2>&1; then
    # shellcheck disable=SC2086
    cppcheck --std=c++20 --language=c++ --enable=warning,performance \
        --inline-suppr --error-exitcode=1 \
        --suppress=internalAstError --suppress=unknownMacro \
        -I src $files
    echo "ok: cppcheck clean"
else
    echo "ci/lint.sh: cppcheck not found; skipping" >&2
fi

if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "ci/lint.sh: clang-tidy not found; skipping lint" >&2
    exit 0
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null

# shellcheck disable=SC2046
clang-tidy -p "$BUILD_DIR" --warnings-as-errors='*' $files
