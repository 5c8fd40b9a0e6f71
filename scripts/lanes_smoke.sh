#!/usr/bin/env sh
# Lane smoke test: the parallel event-lane mode on real binaries.
#
#   - hmsim output (JSON report) is byte-identical at -lanes 1 and -lanes 8,
#     for a workload run and for a trace replay,
#   - hmexp figure CSVs are byte-identical at -lanes 1 and -lanes 8,
#   - hmsim, hmexp, and hmserved all reject -lanes 0 (and a non-integer
#     value) with exit status 2, as hmsim and hmexp do -shrink below 1 and
#     hmexp and hmserved -workers below 0 — the values the daemon refuses
#     in a figure query.
#
# Byte-identity across lane counts is the tentpole invariant of the laned
# engine (internal/sim World); the in-process determinism suite sweeps more
# presets and lane counts, this script pins the end-user surface.
set -eu

SWEEP_OPTS="-shrink 16 -workloads bfs,stencil"
FIG="${FIG:-fig3}"

cd "$(dirname "$0")/.."

tmp="$(mktemp -d "${TMPDIR:-/tmp}/hmlanes.XXXXXX")"
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT INT TERM

go build -o "$tmp/hmsim" ./cmd/hmsim
go build -o "$tmp/hmexp" ./cmd/hmexp
go build -o "$tmp/hmserved" ./cmd/hmserved

# expect_usage_exit cmd...: the command must fail with exit status 2.
expect_usage_exit() {
    status=0
    "$@" >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "lanes_smoke.sh: '$*' exited $status, want 2" >&2
        exit 1
    fi
}

echo "== hmsim: single run, lanes 1 vs 8"
"$tmp/hmsim" -workload bfs -policy bw-aware -shrink 16 -json -lanes 1 >"$tmp/run1.json"
"$tmp/hmsim" -workload bfs -policy bw-aware -shrink 16 -json -lanes 8 >"$tmp/run8.json"
cmp "$tmp/run1.json" "$tmp/run8.json" || {
    echo "lanes_smoke.sh: hmsim output differs between -lanes 1 and -lanes 8" >&2
    exit 1
}

echo "== hmsim: trace replay, lanes 1 vs 8"
"$tmp/hmsim" -workload bfs -shrink 16 -trace "$tmp/bfs.trc" >/dev/null
"$tmp/hmsim" -replay "$tmp/bfs.trc" -json -lanes 1 >"$tmp/replay1.json"
"$tmp/hmsim" -replay "$tmp/bfs.trc" -json -lanes 8 >"$tmp/replay8.json"
cmp "$tmp/replay1.json" "$tmp/replay8.json" || {
    echo "lanes_smoke.sh: hmsim replay differs between -lanes 1 and -lanes 8" >&2
    exit 1
}

echo "== hmexp: $FIG, lanes 1 vs 8"
# shellcheck disable=SC2086
"$tmp/hmexp" $SWEEP_OPTS -csv -lanes 1 "$FIG" >"$tmp/fig1.csv"
# shellcheck disable=SC2086
"$tmp/hmexp" $SWEEP_OPTS -csv -lanes 8 "$FIG" >"$tmp/fig8.csv"
cmp "$tmp/fig1.csv" "$tmp/fig8.csv" || {
    echo "lanes_smoke.sh: hmexp $FIG differs between -lanes 1 and -lanes 8" >&2
    exit 1
}
[ -s "$tmp/fig1.csv" ] || { echo "lanes_smoke.sh: empty figure CSV" >&2; exit 1; }

echo "== invalid -lanes rejected with exit 2"
expect_usage_exit "$tmp/hmsim" -lanes 0 -workload bfs -shrink 16
expect_usage_exit "$tmp/hmsim" -lanes -3 -workload bfs -shrink 16
expect_usage_exit "$tmp/hmsim" -lanes two -workload bfs -shrink 16
expect_usage_exit "$tmp/hmexp" -lanes 0 "$FIG"
expect_usage_exit "$tmp/hmexp" -lanes 1.5 "$FIG"
expect_usage_exit "$tmp/hmserved" -lanes 0 -addr 127.0.0.1:0

echo "== -shrink below 1, -workers below 0 and unknown -workloads rejected with exit 2"
expect_usage_exit "$tmp/hmsim" -shrink -7 -workload bfs
expect_usage_exit "$tmp/hmsim" -shrink 0 -workload bfs
expect_usage_exit "$tmp/hmexp" -shrink -5 "$FIG"
expect_usage_exit "$tmp/hmexp" -workers -3 "$FIG"
expect_usage_exit "$tmp/hmexp" -workloads nosuch "$FIG"
expect_usage_exit "$tmp/hmserved" -workers -1 -addr 127.0.0.1:0

echo "lanes_smoke.sh: OK (figures byte-identical across lane counts)"
