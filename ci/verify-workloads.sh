#!/usr/bin/env bash
# CI gate: run the static fold-legality linter over hand-written fixtures.
# An Illegal verdict (or BIT conflict / BranchInfo inconsistency) makes
# asbr-verify exit nonzero, which fails this script for the *legal* fixtures
# and is required for the illegal one.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
VERIFY="$BUILD_DIR/tools/asbr-verify"

if [[ ! -x "$VERIFY" ]]; then
    echo "ci/verify-workloads.sh: $VERIFY not built; run cmake --build first" >&2
    exit 1
fi

status=0
for fixture in tests/fixtures/*.s; do
    base=$(basename "$fixture")
    if [[ "$base" == illegal_* ]]; then
        if "$VERIFY" "$fixture" --all --no-schedule --quiet; then
            echo "FAIL: $fixture should have been flagged Illegal" >&2
            status=1
        else
            echo "ok: $fixture flagged as expected"
        fi
    else
        if "$VERIFY" "$fixture" --all --no-schedule --quiet; then
            echo "ok: $fixture verified clean"
        else
            echo "FAIL: $fixture should verify clean" >&2
            status=1
        fi
    fi
done

# ----------------------------------------------------- analysis goldens ----
# The static-analysis reports for the two paper encoders are pure functions
# of the program text, so the committed goldens must reproduce byte for
# byte.  Regenerate intentionally with:
#   build/tools/asbr-verify analyze --bench=B --out=tests/golden/analysis_B.json
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
for bench in adpcm-enc g721-enc; do
    golden="tests/golden/analysis_${bench//-/_}.json"
    out="$tmpdir/$(basename "$golden")"
    if ! "$VERIFY" analyze --bench="$bench" --out="$out" --quiet \
            > "$tmpdir/log" 2>&1; then
        echo "FAIL: asbr-verify analyze --bench=$bench failed:" >&2
        cat "$tmpdir/log" >&2
        status=1
    elif ! diff -q "$golden" "$out" > /dev/null; then
        echo "FAIL: $golden drifted from the static analysis:" >&2
        diff "$golden" "$out" | head -20 >&2
        status=1
    else
        echo "ok: $golden reproduced bit-for-bit"
    fi
done

# --------------------------------------------------------- wcet goldens ----
# The static-timing reports pin the whole WCET pipeline: cost model, loop
# bounds, solver, cost-aware selection and the measured soundness check.
# Integer-only documents, so byte-stable at any thread count.  Regenerate
# intentionally with:
#   build/tools/asbr-verify wcet --bench=B --samples=256 --seed=2001 \
#       --out=tests/golden/wcet_B.json
for bench in adpcm-enc g721-enc; do
    golden="tests/golden/wcet_${bench//-/_}.json"
    out="$tmpdir/$(basename "$golden")"
    if ! "$VERIFY" wcet --bench="$bench" --samples=256 --seed=2001 \
            --threads=2 --out="$out" --quiet > "$tmpdir/log" 2>&1; then
        echo "FAIL: asbr-verify wcet --bench=$bench failed:" >&2
        cat "$tmpdir/log" >&2
        status=1
    elif ! diff -q "$golden" "$out" > /dev/null; then
        echo "FAIL: $golden drifted from the static timing engine:" >&2
        diff "$golden" "$out" | head -20 >&2
        status=1
    else
        echo "ok: $golden reproduced bit-for-bit"
    fi
done

# ---------------------------------------------------------- ipa goldens ----
# The interprocedural reports pin the SSA construction, the SCCP solution,
# the value-set resolution and the call-graph summaries.  Integer-only and
# purely static, so byte-stable at any thread count.  The jalr fixture is
# the resolution showcase: its dispatch-table call must stay resolved (two
# targets) and WCET-bounded.  Regenerate intentionally with
# ci/regen-goldens.sh.
STATS="$BUILD_DIR/tools/asbr-stats"
for target in adpcm-enc g721-enc jalr; do
    if [[ "$target" == jalr ]]; then
        golden="tests/golden/ipa_jalr_dispatch.json"
        args=(tests/fixtures/jalr_dispatch.s)
    else
        golden="tests/golden/ipa_${target//-/_}.json"
        args=(--bench="$target")
    fi
    out="$tmpdir/$(basename "$golden")"
    if ! "$VERIFY" ipa "${args[@]}" --out="$out" --quiet \
            > "$tmpdir/log" 2>&1; then
        echo "FAIL: asbr-verify ipa ${args[*]} failed:" >&2
        cat "$tmpdir/log" >&2
        status=1
    elif ! diff -q "$golden" "$out" > /dev/null; then
        echo "FAIL: $golden drifted from the interprocedural analysis:" >&2
        diff "$golden" "$out" | head -20 >&2
        status=1
    elif ! "$STATS" validate "$out" > /dev/null 2>&1; then
        echo "FAIL: $out does not validate against asbr.ipa_report" >&2
        status=1
    else
        echo "ok: $golden reproduced bit-for-bit and validated"
    fi
done

# The resolved dispatch-table call must keep the fixture WCET-bounded (the
# acceptance bar for the value-set resolution: previously this program was
# rejected with "indirect control flow").
if ! python3 - "$tmpdir/ipa_jalr_dispatch.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["wcet"]["bounded"], doc["wcet"]
assert doc["resolution"]["resolved_calls"] == 1, doc["resolution"]
assert len(doc["resolution"]["sites"][0]["targets"]) == 2, doc["resolution"]
EOF
then
    echo "FAIL: jalr dispatch fixture lost its bounded WCET or resolution" >&2
    status=1
else
    echo "ok: jalr dispatch fixture is resolved and WCET-bounded"
fi

# ----------------------------------------------------- sampling golden ----
# One sampled run (quick inputs, pinned seed and window geometry) with the
# full cycle-accurate reference attached: the integer-only report must
# reproduce byte for byte, which pins the decode-cached pipeline, the
# functional fast-forward, the window scheduler and the error-bound math in
# one artifact.  Regenerate intentionally with:
#   build/tools/asbr-stats run --bench=adpcm-enc --quick \
#       --sample=2000:10000:60000 --sample-ref --asbr \
#       --json=tests/golden/sampling_adpcm_enc.json
STATS="$BUILD_DIR/tools/asbr-stats"
golden="tests/golden/sampling_adpcm_enc.json"
out="$tmpdir/$(basename "$golden")"
if ! "$STATS" run --bench=adpcm-enc --quick --sample=2000:10000:60000 \
        --sample-ref --asbr --json="$out" > "$tmpdir/log" 2>&1; then
    echo "FAIL: sampled asbr-stats run failed:" >&2
    cat "$tmpdir/log" >&2
    status=1
elif ! diff -q "$golden" "$out" > /dev/null; then
    echo "FAIL: $golden drifted from the sampled simulation:" >&2
    diff "$golden" "$out" | head -20 >&2
    status=1
else
    echo "ok: $golden reproduced bit-for-bit"
fi

# ------------------------------------------------ predictor-sweep golden ----
# One quick sweep over the bimodal baseline plus the two strong predictors
# (TAGE, perceptron): pins the registry token path through the driver, the
# per-family metric export and the selection artifacts in one byte-diffed
# report.  Regenerate intentionally with ci/regen-goldens.sh.
SWEEP="$BUILD_DIR/tools/asbr-sweep"
golden="tests/golden/sweep_predictors.json"
out="$tmpdir/$(basename "$golden")"
if ! "$SWEEP" --quick --workloads=adpcm-enc \
        --predictors=bimodal,tage,perceptron --bits=4 --baseline \
        --threads=2 --json="$out" > "$tmpdir/log" 2>&1; then
    echo "FAIL: predictor asbr-sweep failed:" >&2
    cat "$tmpdir/log" >&2
    status=1
elif ! diff -q "$golden" "$out" > /dev/null; then
    echo "FAIL: $golden drifted from the predictor sweep:" >&2
    diff "$golden" "$out" | head -20 >&2
    status=1
else
    echo "ok: $golden reproduced bit-for-bit"
fi

# --------------------------------------------------------- cycle anchors ----
# The paper's two headline runs at CLI defaults (ROADMAP "cycle anchors"):
# adpcm-enc under bimodal, and g721-enc with ASBR on.  The second pins the
# whole profile -> accuracy reference -> selection -> fold path, so a change
# that moves which branches get folded shows here.
for anchor in "adpcm-enc 11848955" "g721-enc 78013855 --asbr"; do
    read -r bench want flags <<< "$anchor"
    out="$tmpdir/anchor_${bench}.json"
    if ! "$STATS" run --bench="$bench" $flags --json="$out" \
            > "$tmpdir/log" 2>&1; then
        echo "FAIL: asbr-stats run --bench=$bench $flags failed:" >&2
        cat "$tmpdir/log" >&2
        status=1
        continue
    fi
    got=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["counters"]["pipeline.cycles"])' "$out")
    if [[ "$got" != "$want" ]]; then
        echo "FAIL: $bench $flags ran $got cycles, anchor is $want" >&2
        status=1
    else
        echo "ok: $bench $flags holds its $want-cycle anchor"
    fi
done

# The fault-injection regression rides along with the workload gate: the
# same build tree, the same committed goldens (see ci/faults.sh).
ci/faults.sh || status=1

# Crash-safety: SIGKILL'd sweeps/campaigns must resume byte-identically and
# poisoned jobs must quarantine instead of aborting (see ci/resume.sh).
ci/resume.sh || status=1

exit $status
