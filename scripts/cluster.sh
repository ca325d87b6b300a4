#!/usr/bin/env sh
# cluster.sh — boot M local faultrouted backends and smoke-test the
# distributed dispatch path end to end.
#
#   scripts/cluster.sh            2 backends on ports 18080..18081
#   scripts/cluster.sh 4          4 backends on ports 18080..18083
#   scripts/cluster.sh 4 9000     4 backends on ports 9000..9003
#
# The smoke test exercises the whole stack the way a real deployment
# would: build the binaries, start the daemons, wait for /v1/healthz,
# then run the same workloads in-process and with -backends and require
# byte-identical output (the dispatch layer's headline guarantee):
#
#   1. routebench -exp E1 -format json      == same + -backends
#   2. faultroute -trials 60 (estimate)     == same + -backends, four
#      -backends runs at once (two seeds, each twice)
#   3. every backend's /v1/metrics reports the core series with
#      non-zero work counts after the runs above
#   4. a daemon restarted on the same -cache-dir serves the previous
#      run's results from its disk tier — cache hits, no recomputation
#   5. a fleet with one FAULTROUTE_TASK_DELAY-throttled straggler still
#      returns byte-identical output, and the dispatcher reports hedges
#      fired against it
#
# Daemons are torn down on exit, pass or fail.
set -eu
cd "$(dirname "$0")/.."

M=${1:-2}
BASE_PORT=${2:-18080}

workdir=$(mktemp -d)
pids=""
cleanup() {
    for pid in $pids; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "cluster: building binaries"
go build -o "$workdir/faultrouted" ./cmd/faultrouted
go build -o "$workdir/faultroute" ./cmd/faultroute
go build -o "$workdir/routebench" ./cmd/routebench

# fetch URL: curl or wget, whichever the machine has.
fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1" 2>/dev/null
    else
        wget -qO- "$1" 2>/dev/null
    fi
}

backends=""
i=0
while [ "$i" -lt "$M" ]; do
    port=$((BASE_PORT + i))
    "$workdir/faultrouted" -addr "127.0.0.1:$port" -executors 2 >"$workdir/daemon-$port.log" 2>&1 &
    pids="$pids $!"
    backends="$backends${backends:+,}http://127.0.0.1:$port"
    i=$((i + 1))
done
echo "cluster: started $M backends ($backends)"

# Wait (up to ~10s) for every backend to answer its health endpoint.
for url in $(echo "$backends" | tr ',' ' '); do
    tries=0
    until fetch "$url/v1/healthz" | grep -q '"ok":true'; do
        tries=$((tries + 1))
        if [ "$tries" -ge 100 ]; then
            echo "cluster: $url never became healthy" >&2
            exit 1
        fi
        sleep 0.1
    done
done
echo "cluster: all backends healthy"

echo "cluster: smoke 1 — routebench E1 canonical JSON"
"$workdir/routebench" -exp E1 -seed 1 -scale quick -format json >"$workdir/local.json"
"$workdir/routebench" -exp E1 -seed 1 -scale quick -format json -backends "$backends" >"$workdir/dist.json"
if ! cmp -s "$workdir/local.json" "$workdir/dist.json"; then
    echo "cluster: FAIL — routebench -backends output differs from local" >&2
    exit 1
fi

echo "cluster: smoke 2 — faultroute sharded estimates, four at once"
# Two seeds, each dispatched twice, all four runs at once: the daemons
# see duplicate sub-jobs arrive together, so the second copy coalesces
# onto the first or reads its stored result, and every run must still
# print exactly its in-process output.
for seed in 3 9; do
    "$workdir/faultroute" -graph hypercube -n 8 -p 0.6 -trials 60 -seed "$seed" >"$workdir/local-$seed.txt"
done
dist=""
for run in 1 2; do
    for seed in 3 9; do
        "$workdir/faultroute" -graph hypercube -n 8 -p 0.6 -trials 60 -seed "$seed" -backends "$backends" \
            >"$workdir/dist-$seed-$run.txt" 2>"$workdir/dist-$seed-$run.err" &
        dist="$dist $!"
    done
done
for pid in $dist; do
    if ! wait "$pid"; then
        echo "cluster: FAIL — a faultroute -backends run exited non-zero" >&2
        cat "$workdir"/dist-*.err >&2
        exit 1
    fi
done
for run in 1 2; do
    for seed in 3 9; do
        if ! cmp -s "$workdir/local-$seed.txt" "$workdir/dist-$seed-$run.txt"; then
            echo "cluster: FAIL — faultroute -backends run $run of seed $seed differs from local" >&2
            exit 1
        fi
    done
done

echo "cluster: smoke 3 — /v1/metrics on every backend"
# The dispatch runs above sharded work across all backends, so each one
# must now expose the core series, and the work counters must be
# non-zero. (Dispatch failover series live in the dispatching process,
# not the daemons, so they are not required here.)
for url in $(echo "$backends" | tr ',' ' '); do
    if ! fetch "$url/v1/metrics" >"$workdir/metrics.txt"; then
        echo "cluster: FAIL — $url/v1/metrics unreachable" >&2
        exit 1
    fi
    for series in \
        faultroute_jobs_queue_depth \
        faultroute_jobs_queue_capacity \
        faultroute_jobs_executors \
        faultroute_jobs_executors_busy \
        faultroute_cache_hits_total \
        faultroute_cache_results \
        faultroute_sse_streams_active \
        faultroute_jobs_coalesced_total; do
        if ! grep -q "^$series " "$workdir/metrics.txt"; then
            echo "cluster: FAIL — $url/v1/metrics is missing $series" >&2
            exit 1
        fi
    done
    for series in \
        faultroute_cache_misses_total \
        faultroute_http_requests_total \
        faultroute_jobs_submitted_total \
        faultroute_job_duration_seconds_count; do
        if ! grep "^$series" "$workdir/metrics.txt" | grep -qv ' 0$'; then
            echo "cluster: FAIL — $url/v1/metrics reports no work in $series" >&2
            exit 1
        fi
    done
done
echo "cluster: all backends expose live /v1/metrics"

echo "cluster: smoke 4 — warm restart from a persistent -cache-dir"
# Boot one more daemon with a disk result tier, compute through it, kill
# it, restart it on the same directory, and re-run the same workload:
# every result must come from the recovered cache (cache hits,
# disk-tier hits) without recomputing a single trial. The pool reads
# each shard's stored result from its owner before submitting, so the
# restarted daemon answers GET /v1/results and receives no submissions.
warm_port=$((BASE_PORT + M))
warm_url="http://127.0.0.1:$warm_port"
cache_dir="$workdir/cache"
"$workdir/faultrouted" -addr "127.0.0.1:$warm_port" -executors 2 -cache-dir "$cache_dir" \
    >"$workdir/daemon-warm-1.log" 2>&1 &
warm_pid=$!
tries=0
until fetch "$warm_url/v1/healthz" | grep -q '"ok":true'; do
    tries=$((tries + 1))
    if [ "$tries" -ge 100 ]; then
        echo "cluster: $warm_url never became healthy" >&2
        exit 1
    fi
    sleep 0.1
done
"$workdir/faultroute" -graph hypercube -n 8 -p 0.6 -trials 60 -seed 5 -backends "$warm_url" >"$workdir/warm1.txt"
kill "$warm_pid"
wait "$warm_pid" 2>/dev/null || true

"$workdir/faultrouted" -addr "127.0.0.1:$warm_port" -executors 2 -cache-dir "$cache_dir" \
    >"$workdir/daemon-warm-2.log" 2>&1 &
warm_pid=$!
pids="$pids $warm_pid"
tries=0
until fetch "$warm_url/v1/healthz" | grep -q '"ok":true'; do
    tries=$((tries + 1))
    if [ "$tries" -ge 100 ]; then
        echo "cluster: $warm_url never became healthy after restart" >&2
        exit 1
    fi
    sleep 0.1
done
if ! grep -q 'recovered [1-9][0-9]* result' "$workdir/daemon-warm-2.log"; then
    echo "cluster: FAIL — restarted daemon recovered no results from $cache_dir" >&2
    exit 1
fi
"$workdir/faultroute" -graph hypercube -n 8 -p 0.6 -trials 60 -seed 5 -backends "$warm_url" >"$workdir/warm2.txt"
if ! cmp -s "$workdir/warm1.txt" "$workdir/warm2.txt"; then
    echo "cluster: FAIL — post-restart output differs from the original run" >&2
    exit 1
fi
fetch "$warm_url/v1/metrics" >"$workdir/warm-metrics.txt"
if ! grep '^faultroute_cache_hits_total ' "$workdir/warm-metrics.txt" | grep -qv ' 0$'; then
    echo "cluster: FAIL — restarted daemon served no cached results" >&2
    exit 1
fi
if grep 'faultroute_jobs_submitted_total{outcome="fresh"}' "$workdir/warm-metrics.txt" | grep -qv ' 0$'; then
    echo "cluster: FAIL — restarted daemon recomputed work it should have had on disk" >&2
    exit 1
fi
if ! grep 'faultroute_cache_tier_hits_total{tier="disk"}' "$workdir/warm-metrics.txt" | grep -qv ' 0$'; then
    echo "cluster: FAIL — restarted daemon reports no disk-tier hits" >&2
    exit 1
fi
echo "cluster: warm restart served every result from the disk tier"

echo "cluster: smoke 5 — hedged dispatch around a throttled straggler"
# Boot one more daemon whose every fresh task sleeps 300ms
# (FAULTROUTE_TASK_DELAY) and add it to the fleet. With a tight hedge
# floor the dispatcher must speculate shards stuck behind it onto the
# fast backends, report those hedges on stderr, and still produce the
# exact bytes of the in-process run.
slow_port=$((BASE_PORT + M + 1))
slow_url="http://127.0.0.1:$slow_port"
FAULTROUTE_TASK_DELAY=300ms "$workdir/faultrouted" -addr "127.0.0.1:$slow_port" -executors 2 \
    >"$workdir/daemon-slow.log" 2>&1 &
pids="$pids $!"
tries=0
until fetch "$slow_url/v1/healthz" | grep -q '"ok":true'; do
    tries=$((tries + 1))
    if [ "$tries" -ge 100 ]; then
        echo "cluster: $slow_url never became healthy" >&2
        exit 1
    fi
    sleep 0.1
done
"$workdir/faultroute" -graph hypercube -n 8 -p 0.6 -trials 60 -seed 7 >"$workdir/hedge-local.txt"
"$workdir/faultroute" -graph hypercube -n 8 -p 0.6 -trials 60 -seed 7 \
    -backends "$backends,$slow_url" -hedge-after 100ms \
    >"$workdir/hedge-dist.txt" 2>"$workdir/hedge-stats.txt"
if ! cmp -s "$workdir/hedge-local.txt" "$workdir/hedge-dist.txt"; then
    echo "cluster: FAIL — hedged output differs from local" >&2
    exit 1
fi
hedges=$(sed -n 's/.* \([0-9][0-9]*\) hedges.*/\1/p' "$workdir/hedge-stats.txt")
if [ -z "$hedges" ] || [ "$hedges" -lt 1 ]; then
    echo "cluster: FAIL — no hedges fired against a 300ms straggler (stats: $(cat "$workdir/hedge-stats.txt"))" >&2
    exit 1
fi
echo "cluster: straggler absorbed — $hedges hedges, bytes identical"

echo "cluster: OK — $M-backend dispatch is byte-identical to in-process runs"
