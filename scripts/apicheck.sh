#!/usr/bin/env sh
# apicheck.sh — public-API drift gate.
#
# The exported surface of the six public packages (the faultroute
# facade, the api wire types, the remote client, the embeddable serve
# layer, the distributed dispatch pool, the bench metrics reader) is
# frozen by a golden `go doc` snapshot in docs/api-surface.txt:
# cache keys, wire JSON and downstream callers all depend on those
# signatures, so accidental churn must fail CI rather than slip through
# review.
#
#   scripts/apicheck.sh           compare the live surface to the snapshot
#   scripts/apicheck.sh -update   regenerate the snapshot (deliberate change)
set -eu
cd "$(dirname "$0")/.."

snapshot=docs/api-surface.txt
live=$(mktemp)
trap 'rm -f "$live"' EXIT

{
    echo '# Generated by scripts/apicheck.sh -update; do not edit by hand.'
    for pkg in faultroute faultroute/api faultroute/client faultroute/serve faultroute/dispatch faultroute/bench; do
        echo
        echo "=== go doc -all $pkg ==="
        # -all so struct FIELDS and methods are part of the snapshot:
        # the wire-frozen spec/result/status encodings live in field
        # names and tags, which plain `go doc` elides as `{ ... }`.
        go doc -all "$pkg"
    done
} >"$live"

if [ "${1:-}" = "-update" ]; then
    cp "$live" "$snapshot"
    echo "apicheck: snapshot updated ($snapshot)"
    exit 0
fi

if ! diff -u "$snapshot" "$live"; then
    echo >&2
    echo "apicheck: public API surface drifted from $snapshot." >&2
    echo "apicheck: if the change is deliberate, run scripts/apicheck.sh -update and commit the result." >&2
    exit 1
fi
echo "apicheck: public API surface matches $snapshot"
