#!/usr/bin/env sh
# Flight-recorder smoke test: the in-run observability subsystem
# (internal/obs) end to end on real binaries, with the invariants that hold
# it together checked:
#
#   - a run's -json output is byte-identical with the probe on vs off, and
#     with -probe riding a multi-lane run — observing never perturbs;
#   - -probe rides trace recording and replay too: a probed -trace exits 0
#     and a probed -replay's -json equals the unprobed replay's;
#   - hmsim -probe dumps a series that hmtrace counters validates (CSV and
#     JSON), and a probed migration run records mig.* columns;
#   - hmexp -probe dumps one labeled series per simulation and merges the
#     series into the -trace-out Chrome/Perfetto timeline as counter
#     events, which hmtrace counters validates;
#   - hmexp -list prints every registered figure (including the figdyn and
#     figtune extensions) and exits 0, and figdyn renders;
#   - an hmserved daemon accepts ?probe= submissions and streams the series
#     live over GET /v1/jobs/{id}/progress, reports its build identity on
#     /healthz, and rejects a probe out= path with 400;
#   - hmsim and hmexp reject invalid -probe specs (and contradictory flag
#     combinations) with exit status 2.
#
# Everything binds to 127.0.0.1 only and uses throwaway cache dirs.
set -eu

# Its own port range: tune-smoke listens on 18121, and make -j runs both.
BASE_PORT="${BASE_PORT:-18131}"

cd "$(dirname "$0")/.."

tmp="$(mktemp -d "${TMPDIR:-/tmp}/hmprobe.XXXXXX")"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    for p in $pids; do wait "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/hmsim" ./cmd/hmsim
go build -o "$tmp/hmexp" ./cmd/hmexp
go build -o "$tmp/hmserved" ./cmd/hmserved
go build -o "$tmp/hmtrace" ./cmd/hmtrace

http_get() { # url
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}
http_post() { # url body
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -X POST -H 'Content-Type: application/json' -d "$2" "$1"
    else
        wget -qO- --header 'Content-Type: application/json' --post-data "$2" "$1"
    fi
}
wait_healthy() { # url
    for _ in $(seq 1 50); do
        http_get "$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "probe_smoke.sh: daemon at $1 never became healthy" >&2
    cat "$tmp"/daemon.log >&2 || true
    return 1
}

RUN="-workload bfs -policy bw-aware -capacity 0.1 -shrink 16 -migrate on"

echo "== probe on vs off: -json byte-identical, including multi-lane =="
# shellcheck disable=SC2086
"$tmp/hmsim" $RUN -json >"$tmp/run-plain.json"
# shellcheck disable=SC2086
"$tmp/hmsim" $RUN -json -probe on >"$tmp/run-probed.json" 2>/dev/null
diff "$tmp/run-plain.json" "$tmp/run-probed.json"
# shellcheck disable=SC2086
"$tmp/hmsim" $RUN -json -lanes 4 -probe interval=1000 >"$tmp/run-laned.json" 2>/dev/null
diff "$tmp/run-plain.json" "$tmp/run-laned.json"

echo "== probed trace record and replay: exit 0, replay -json byte-identical =="
"$tmp/hmsim" -probe on -trace "$tmp/x.trc" -workload bfs -shrink 16 >/dev/null 2>&1
"$tmp/hmsim" -replay "$tmp/x.trc" -json >"$tmp/replay-plain.json"
"$tmp/hmsim" -replay "$tmp/x.trc" -json -probe on >"$tmp/replay-probed.json" 2>/dev/null
diff "$tmp/replay-plain.json" "$tmp/replay-probed.json"

echo "== probed migration run dumps validatable CSV and JSON series =="
# shellcheck disable=SC2086
"$tmp/hmsim" $RUN -probe "interval=2000,out=$tmp/series.csv" >/dev/null 2>&1
"$tmp/hmtrace" counters "$tmp/series.csv"
grep -q "mig.promotions" "$tmp/series.csv" || {
    echo "probe_smoke.sh: migration run's series lacks mig.* columns" >&2
    exit 1
}
# shellcheck disable=SC2086
"$tmp/hmsim" $RUN -probe "interval=2000,out=$tmp/series.json" >/dev/null 2>&1
"$tmp/hmtrace" counters "$tmp/series.json"

echo "== hmexp -probe: per-run dumps + counter tracks in the Perfetto trace =="
"$tmp/hmexp" -probe "interval=2000,out=$tmp/exp" -trace-out "$tmp/trace.json" \
    -shrink 16 -workloads bfs -out "$tmp/fig-probed" fig3 >/dev/null 2>&1
ls "$tmp"/exp.bfs.*.json >/dev/null || {
    echo "probe_smoke.sh: hmexp -probe wrote no per-run series" >&2
    exit 1
}
"$tmp/hmtrace" counters "$(ls "$tmp"/exp.bfs.*.json | head -1)"
"$tmp/hmtrace" counters "$tmp/trace.json"
"$tmp/hmexp" -shrink 16 -workloads bfs -out "$tmp/fig-plain" fig3 >/dev/null
diff "$tmp/fig-plain/fig3.csv" "$tmp/fig-probed/fig3.csv"

echo "== hmexp -list enumerates the figure registry =="
"$tmp/hmexp" -list >"$tmp/list.txt"
for id in table1 fig2a figdyn figtune; do
    grep -q "^$id" "$tmp/list.txt" || {
        echo "probe_smoke.sh: hmexp -list is missing $id" >&2
        exit 1
    }
done

echo "== figdyn (the dynamics figure) renders deterministically =="
"$tmp/hmexp" -shrink 16 -out "$tmp/dyn1" figdyn >/dev/null
"$tmp/hmexp" -shrink 16 -workers 1 -out "$tmp/dyn2" figdyn >/dev/null
diff "$tmp/dyn1/figdyn.csv" "$tmp/dyn2/figdyn.csv"
grep -q "counter" "$tmp/dyn1/figdyn.csv" && grep -q "ewma" "$tmp/dyn1/figdyn.csv" || {
    echo "probe_smoke.sh: figdyn CSV is missing its policy arms" >&2
    exit 1
}

echo "== daemon: ?probe= submission streams live over /progress =="
url="http://127.0.0.1:$BASE_PORT"
"$tmp/hmserved" -addr "127.0.0.1:$BASE_PORT" -cache-dir "$tmp/cache" \
    -drain 5s 2>>"$tmp/daemon.log" &
pids="$pids $!"
wait_healthy "$url"
http_get "$url/healthz" | grep -q "go_version" || {
    echo "probe_smoke.sh: /healthz reports no build identity" >&2
    exit 1
}
job="$(http_post "$url/v1/runs?probe=interval=500,samples=256" \
    '{"Workload":"bfs","Shrink":16,"BOCapacityFrac":0.1}')"
id="$(printf '%s' "$job" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$id" ] || {
    echo "probe_smoke.sh: probed submission returned no job id: $job" >&2
    exit 1
}
http_get "$url/v1/jobs/$id/progress" >"$tmp/progress.ndjson"
grep -q '"state":"done"' "$tmp/progress.ndjson" || {
    echo "probe_smoke.sh: /progress stream never reached done:" >&2
    cat "$tmp/progress.ndjson" >&2
    exit 1
}
grep -q '"time_cycles"' "$tmp/progress.ndjson" || {
    echo "probe_smoke.sh: /progress stream carried no series chunks" >&2
    exit 1
}
# A daemon-side out= path must be rejected with 400.
if http_post "$url/v1/runs?probe=out=/tmp/evil.csv" '{"Workload":"bfs"}' >/dev/null 2>&1; then
    echo "probe_smoke.sh: daemon accepted a probe out= path" >&2
    exit 1
fi

echo "== invalid -probe specs and combinations rejected with exit 2 =="
for cmd in "$tmp/hmsim -probe samples=1 -workload bfs" \
    "$tmp/hmexp -probe format=xml fig3" \
    "$tmp/hmexp -probe on -server $url fig3"; do
    set +e
    # shellcheck disable=SC2086
    $cmd >/dev/null 2>&1
    status=$?
    set -e
    if [ "$status" -ne 2 ]; then
        echo "probe_smoke.sh: '$cmd' exited $status, want 2" >&2
        exit 1
    fi
done

echo "probe smoke OK: byte-identity probed vs plain (runs and replays), series validated, live /progress stream, figdyn deterministic, bad specs rejected"
