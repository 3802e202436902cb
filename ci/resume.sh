#!/usr/bin/env bash
# CI gate: crash-safe sweeps (docs/robustness.md).
#
# Proves, with the real binaries, the three durable-execution properties the
# unit tests pin at the library layer:
#
#   1. kill-and-resume — an asbr-sweep SIGKILL'd mid-grid and resumed with
#      --resume must write a report byte-identical to the run that never
#      crashed, at --threads=1 and --threads=8;
#   2. torn-journal replay — appending garbage + a torn half-record to the
#      journal must not corrupt the resume (same byte-identity);
#   3. quarantine — a persistently failing job (1 ms wall-clock watchdog)
#      must land in the report's failed_jobs section with exit code 3, not
#      abort the grid; and the same kill-and-resume must hold for an
#      asbr-faults campaign.
#
# The kill is timed to land mid-simulation: the sweep gets enough samples to
# run for several seconds, and the journal is required to be non-empty but
# incomplete at the moment of death (otherwise the test degenerates).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
SWEEP="$BUILD_DIR/tools/asbr-sweep"
FAULTS="$BUILD_DIR/tools/asbr-faults"
STATS="$BUILD_DIR/tools/asbr-stats"

for tool in "$SWEEP" "$FAULTS" "$STATS"; do
    if [[ ! -x "$tool" ]]; then
        echo "ci/resume.sh: $tool not built; run cmake --build first" >&2
        exit 1
    fi
done

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
status=0

# A grid long enough (~6 adpcm-enc/dec runs at 100k samples) that a kill
# 1.5 s in reliably lands mid-grid on CI hardware.
SWEEP_ARGS=(--adpcm=100000 --workloads=adpcm-enc,adpcm-dec --bits=2,4
            --baseline --seed=2001)

echo "--- one-shot reference (serial)"
"$SWEEP" "${SWEEP_ARGS[@]}" --threads=1 --json="$tmpdir/oneshot.json" \
    > /dev/null 2>&1

for threads in 1 8; do
    dir="$tmpdir/journal_t$threads"
    echo "--- kill-and-resume at --threads=$threads"
    "$SWEEP" "${SWEEP_ARGS[@]}" --threads=$threads --journal="$dir" \
        --json="$tmpdir/never_t$threads.json" > /dev/null 2>&1 &
    pid=$!
    sleep 1.5
    kill -9 "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true

    if [[ ! -s "$dir/journal.jsonl" ]]; then
        echo "FAIL: journal empty after 1.5s — kill landed before any work" >&2
        status=1
        continue
    fi
    if [[ -f "$tmpdir/never_t$threads.json" ]]; then
        echo "FAIL: sweep finished before the kill — grid too small to" \
             "exercise resume" >&2
        status=1
        continue
    fi

    if [[ $threads -eq 8 ]]; then
        # Torn-journal replay: garbage + a half-written record must be
        # skipped, not parsed into state.
        printf 'definitely not json\n{"status":"done","jobKey":"x","att' \
            >> "$dir/journal.jsonl"
    fi

    if ! "$SWEEP" "${SWEEP_ARGS[@]}" --threads=$threads --journal="$dir" \
            --resume --json="$tmpdir/resumed_t$threads.json" \
            > /dev/null 2> "$tmpdir/resume.log"; then
        echo "FAIL: --resume run failed:" >&2
        cat "$tmpdir/resume.log" >&2
        status=1
        continue
    fi
    if ! grep -q 'resumed' "$tmpdir/resume.log"; then
        echo "FAIL: resume log never mentions resumed jobs" >&2
        status=1
    fi
    if ! cmp -s "$tmpdir/oneshot.json" "$tmpdir/resumed_t$threads.json"; then
        echo "FAIL: resumed sweep differs from the one-shot run at" \
             "--threads=$threads:" >&2
        diff "$tmpdir/oneshot.json" "$tmpdir/resumed_t$threads.json" \
            | head -20 >&2
        status=1
    else
        echo "ok: resumed sweep byte-identical at --threads=$threads"
    fi
    "$STATS" validate "$tmpdir/resumed_t$threads.json" > /dev/null || {
        echo "FAIL: resumed sweep report does not validate" >&2
        status=1
    }
done

# ------------------------------------------------------------ quarantine ---
echo "--- quarantine (1 ms wall-clock watchdog)"
set +e
"$SWEEP" --workloads=g721-enc --bits=2 --g721=20000 --job-timeout=1 \
    --max-attempts=2 --journal="$tmpdir/qj" --json="$tmpdir/q.json" \
    > /dev/null 2> "$tmpdir/q.log"
code=$?
set -e
if [[ $code -ne 3 ]]; then
    echo "FAIL: quarantined sweep exited $code, want 3:" >&2
    cat "$tmpdir/q.log" >&2
    status=1
elif ! grep -q '"failed_jobs"' "$tmpdir/q.json" \
        || ! grep -q 'job watchdog' "$tmpdir/q.json"; then
    echo "FAIL: quarantined job missing from the report's failed_jobs" >&2
    status=1
else
    echo "ok: watchdogged job quarantined into failed_jobs (exit 3)"
fi
"$STATS" validate "$tmpdir/q.json" > /dev/null || {
    echo "FAIL: quarantine report does not validate" >&2
    status=1
}

# ----------------------------------------------- fault-campaign resume -----
echo "--- fault-campaign kill-and-resume"
CAMPAIGN_ARGS=(campaign --bench=g721-enc --quick --injections=24
               --fault-seed=11)
"$FAULTS" "${CAMPAIGN_ARGS[@]}" --json="$tmpdir/fc_oneshot.json" \
    > /dev/null 2>&1
"$FAULTS" "${CAMPAIGN_ARGS[@]}" --journal="$tmpdir/fcj" \
    --json="$tmpdir/fc_never.json" > /dev/null 2>&1 &
pid=$!
sleep 2
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true

if [[ -f "$tmpdir/fc_never.json" ]]; then
    echo "note: campaign finished before the kill; resume degenerates to" \
         "full splice (still byte-checked)" >&2
fi
if ! "$FAULTS" "${CAMPAIGN_ARGS[@]}" --journal="$tmpdir/fcj" --resume \
        --json="$tmpdir/fc_resumed.json" > /dev/null 2>&1; then
    echo "FAIL: campaign --resume failed" >&2
    status=1
elif ! cmp -s "$tmpdir/fc_oneshot.json" "$tmpdir/fc_resumed.json"; then
    echo "FAIL: resumed campaign differs from the one-shot run:" >&2
    diff "$tmpdir/fc_oneshot.json" "$tmpdir/fc_resumed.json" | head -20 >&2
    status=1
else
    echo "ok: resumed fault campaign byte-identical"
fi
"$FAULTS" validate "$tmpdir/fc_resumed.json" > /dev/null || {
    echo "FAIL: resumed fault report does not validate" >&2
    status=1
}

if [[ $status -eq 0 ]]; then
    echo "ok: SIGKILL'd sweeps and campaigns resume byte-identically;" \
         "poisoned jobs quarantine instead of aborting"
fi
exit $status
