#!/usr/bin/env sh
# countercheck.sh — gate frbench's exact per-layer counters.
#
#   scripts/countercheck.sh REPORT.json
#
# REPORT is a traced frbench report (bash cmd/frbench/run.sh -seed 1
# -seconds 1 -trace 1 -out REPORT.json). Every counter of
# scripts/counters.txt must equal the traced run's value exactly, and
# every traced workload in REPORT must have a line there.
# Wall time and runtime.* figures are never compared: they depend on
# the machine. Needs jq.
set -eu

report=${1:?usage: scripts/countercheck.sh REPORT.json}
baseline=$(dirname "$0")/counters.txt

fail=0
while read -r workload counter want; do
    case "$workload" in '' | '#'*) continue ;; esac
    if [ "$workload" = env ]; then
        got=$(jq --arg k "$counter" '.env[$k]' "$report")
    else
        got=$(jq --arg w "$workload" --arg c "$counter" \
            '[.runs[] | select(.workload == $w and .traced) | .metrics[$c].value] | first' "$report")
    fi
    # Compare as JSON numbers, not as strings, so 1 and 1.0 agree.
    if ! jq -n --argjson got "$got" --argjson want "$want" -e '$got == $want' >/dev/null; then
        echo "countercheck: $workload $counter = $got, baseline $want" >&2
        fail=1
    fi
done <"$baseline"

for workload in $(jq -r '.runs[] | select(.traced) | .workload' "$report"); do
    if ! grep -q "^$workload " "$baseline"; then
        echo "countercheck: traced workload $workload has no line in $baseline" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "countercheck: exact counters moved; if the change is deliberate, update $baseline" >&2
    exit 1
fi
echo "countercheck: every exact counter matches $baseline"
