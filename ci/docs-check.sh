#!/usr/bin/env bash
# CI gate: keep the documentation honest.
#
# 1. Every relative markdown link in README.md, DESIGN.md, EXPERIMENTS.md,
#    ROADMAP.md and docs/*.md must point at a file that exists.
# 2. docs/metrics.md must stay in sync with the metric registry: every name
#    `asbr-stats counters` prints must appear (backticked) in the doc, and
#    every backticked dotted metric name in the doc must exist in the
#    registry.  Skips gracefully when asbr-stats has not been built (the
#    lint runner may not have a build tree).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
STATS="$BUILD_DIR/tools/asbr-stats"
status=0

# ------------------------------------------------------------ link check ----
docs=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md)
for doc in "${docs[@]}"; do
    [[ -f "$doc" ]] || continue
    dir=$(dirname "$doc")
    # Extract markdown link targets: [text](target)
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path=${target%%#*}               # drop fragment
        [[ -n "$path" ]] || continue
        if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
            echo "FAIL: $doc links to missing file '$target'" >&2
            status=1
        fi
    done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/.*(\(.*\))/\1/')
    echo "ok: links in $doc"
done

# -------------------------------------------------------- metrics <-> doc ----
if [[ ! -x "$STATS" ]]; then
    echo "ci/docs-check.sh: $STATS not built; skipping metric-name check" >&2
    exit $status
fi
if [[ ! -f docs/metrics.md ]]; then
    echo "FAIL: docs/metrics.md is missing" >&2
    exit 1
fi

registry=$("$STATS" counters | awk '{print $1}' | sort)

# Registry -> doc: every registered metric must be documented.
while IFS= read -r name; do
    if ! grep -q "\`$name\`" docs/metrics.md; then
        echo "FAIL: metric '$name' is registered but not documented in docs/metrics.md" >&2
        status=1
    fi
done <<< "$registry"

# Doc -> registry: every backticked dotted metric name must exist (schema
# identifiers asbr.sim_report / asbr.bench_report are names of documents,
# not metrics).
documented=$(grep -o '`\(pipeline\|mem\|bp\|asbr\|engine\|wcet\|selection\|sim\)\.[a-z0-9_.]*`' docs/*.md \
    | sed 's/.*`\(.*\)`/\1/' \
    | grep -v -e '^asbr\.sim_report$' -e '^asbr\.bench_report$' \
              -e '^asbr\.fault_report$' -e '^asbr\.analysis_report$' \
              -e '^asbr\.sweep_report$' -e '^asbr\.wcet_report$' \
              -e '^asbr\.sampling_report$' -e '^asbr\.ipa_report$' \
    | sort -u)
while IFS= read -r name; do
    [[ -n "$name" ]] || continue
    if ! grep -qx "$name" <<< "$registry"; then
        echo "FAIL: docs mention metric '$name' which is not in the registry" >&2
        status=1
    fi
done <<< "$documented"

if [[ $status -eq 0 ]]; then
    echo "ok: docs/metrics.md matches the metric registry ($(wc -l <<< "$registry") names)"
fi

# -------------------------------------------- predictor tokens <-> docs ----
# The PredictorRegistry is the single source of truth for construction
# tokens: every family `asbr-stats predictors` lists must appear backticked
# in docs/predictors.md and README.md, and every backticked token-looking
# word in the docs' predictor tables must be a registered family.
if [[ ! -f docs/predictors.md ]]; then
    echo "FAIL: docs/predictors.md is missing" >&2
    status=1
else
    tokens=$("$STATS" predictors | awk '{print $1}' | sort)
    while IFS= read -r token; do
        [[ -n "$token" ]] || continue
        for doc in docs/predictors.md README.md; do
            if ! grep -q "\`$token\`" "$doc"; then
                echo "FAIL: predictor token '$token' is registered but not" \
                     "listed in $doc" >&2
                status=1
            fi
        done
    done <<< "$tokens"
    # Doc -> registry: the token column of docs/predictors.md's family table
    # (backticked first cell of each row) must resolve.
    documented_tokens=$(awk -F'|' '/^\| `/{print $2}' docs/predictors.md \
        | grep -o '`[a-z0-9-]*`' | tr -d '`' | sort -u)
    while IFS= read -r token; do
        [[ -n "$token" ]] || continue
        if ! grep -qx "$token" <<< "$tokens"; then
            echo "FAIL: docs/predictors.md lists token '$token' which is not" \
                 "in the registry" >&2
            status=1
        fi
    done <<< "$documented_tokens"
    if [[ $status -eq 0 ]]; then
        echo "ok: docs/predictors.md and README.md list every registry token"
    fi
fi

# ------------------------------------------------- README <-> --help sync ----
# `asbr-stats --help` is the single source of truth for the subcommand list:
# every command it prints (first word of each line in the "commands:" block)
# must be documented in README.md as `asbr-stats <command>`, in the same
# order.
commands=$("$STATS" --help 2>/dev/null \
    | awk '/^commands:$/{f=1; next} f && /^$/{exit} f {print $1}')
if [[ -z "$commands" ]]; then
    echo "FAIL: could not parse the commands block from asbr-stats --help" >&2
    status=1
fi
prev_line=0
prev_cmd=""
while IFS= read -r cmd; do
    [[ -n "$cmd" ]] || continue
    # A missing command makes grep fail; under pipefail that must reach the
    # FAIL branch below instead of aborting the script.
    line=$(grep -n "asbr-stats $cmd" README.md | head -1 | cut -d: -f1 || true)
    if [[ -z "$line" ]]; then
        echo "FAIL: README.md does not document 'asbr-stats $cmd'" >&2
        status=1
        continue
    fi
    if (( line < prev_line )); then
        echo "FAIL: README.md documents 'asbr-stats $cmd' before" \
             "'asbr-stats $prev_cmd' — keep --help order" >&2
        status=1
    fi
    prev_line=$line
    prev_cmd=$cmd
done <<< "$commands"
if [[ $status -eq 0 ]]; then
    echo "ok: README.md documents every asbr-stats subcommand in --help order"
fi

# ---------------------------------------- durability flags <-> --help sync ----
# The durable-execution flags (docs/robustness.md) must be discoverable from
# every tool's --help AND documented in README.md — a flag that exists in
# code but not in help text (or vice versa) is a docs bug.
for flag in --journal --resume --job-timeout --max-attempts; do
    if ! grep -q -- "$flag" README.md; then
        echo "FAIL: README.md does not mention the $flag flag" >&2
        status=1
    fi
    for tool in asbr-stats asbr-verify asbr-faults asbr-sweep; do
        bin="$BUILD_DIR/tools/$tool"
        [[ -x "$bin" ]] || continue
        if ! "$bin" --help 2>/dev/null | grep -q -- "$flag"; then
            echo "FAIL: $tool --help does not mention $flag" >&2
            status=1
        fi
    done
done
if [[ $status -eq 0 ]]; then
    echo "ok: durability flags appear in README.md and every tool's --help"
fi
exit $status
