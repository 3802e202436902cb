#!/usr/bin/env bash
# CI gate: build the whole tree under ASan+UBSan and run the test suite,
# then build under ThreadSanitizer and run the parallel-engine tests.
# Any sanitizer report aborts the run (-fno-sanitize-recover=all).
#
# TSan is mutually exclusive with ASan (the CMakeLists enforces it), so the
# two configurations use separate build trees.  The TSan pass runs only the
# driver and durability tests — they are the ones that exercise concurrent
# engine workers, the shared artifact cache, the atomic work-claiming pool
# and the journal the attempt loop writes from every worker — because a
# full TSan test-suite run is several times slower for no extra coverage of
# threaded code paths (everything else is single-threaded by construction).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build-sanitize}
TSAN_DIR=${TSAN_DIR:-build-tsan}

cmake -B "$BUILD_DIR" -S . -DASBR_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

cmake -B "$TSAN_DIR" -S . -DASBR_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" -j "$(nproc)" --target driver_test durability_test
"$TSAN_DIR/tests/driver_test"
"$TSAN_DIR/tests/durability_test"
echo "ci/sanitize.sh: ASan+UBSan suite and TSan driver/durability tests are clean"
