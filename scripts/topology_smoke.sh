#!/usr/bin/env sh
# Topology smoke test: every memory-topology preset runs a tiny figure
# sweep end to end, with the invariants that hold the preset system
# together checked on real binaries:
#
#   - k40-ddr4 output is byte-identical to the default (Table 1) render,
#   - gh200 and cxl-expansion produce valid, non-empty figure CSVs that
#     differ from the Table 1 ones,
#   - an hmserved daemon serves ?topology= figures byte-identical to the
#     corresponding local renders,
#   - a trace recorded with hmsim -trace replays (-replay -json) on every
#     preset, including the N-pool ones,
#   - hmexp, hmsim, and hmserved all reject an unknown topology with exit
#     status 2 and name the available presets,
#   - the cross-topology study (figtopo) renders.
#
# Everything binds to 127.0.0.1 only and uses throwaway cache dirs.
set -eu

BASE_PORT="${BASE_PORT:-18091}"
# fig3 (the LOCAL/INTERLEAVE/BW-AWARE policy comparison) exercises every
# pool of a preset; LOCAL-only figures like fig2a never touch the extra
# pools, so their output legitimately matches Table 1 on cxl-expansion.
FIG="${FIG:-fig3}"
SWEEP_OPTS="-shrink 16 -workloads bfs,stencil"
PRESETS="k40-ddr4 gh200 cxl-expansion"

cd "$(dirname "$0")/.."

tmp="$(mktemp -d "${TMPDIR:-/tmp}/hmtopo.XXXXXX")"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    for p in $pids; do wait "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/hmserved" ./cmd/hmserved
go build -o "$tmp/hmexp" ./cmd/hmexp
go build -o "$tmp/hmsim" ./cmd/hmsim

wait_healthy() { # url
    for _ in $(seq 1 50); do
        if command -v curl >/dev/null 2>&1; then
            curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
        else
            wget -qO- "$1/healthz" >/dev/null 2>&1 && return 0
        fi
        sleep 0.2
    done
    echo "topology_smoke.sh: daemon at $1 never became healthy" >&2
    cat "$tmp"/daemon.log >&2 || true
    return 1
}

# fetch url out: GET a figure from the daemon and extract its CSV field.
fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1" >"$2"
    else
        wget -qO "$2" "$1"
    fi
}

echo "== local renders: default + every preset =="
# shellcheck disable=SC2086
"$tmp/hmexp" $SWEEP_OPTS -out "$tmp/out-default" "$FIG" >/dev/null
for p in $PRESETS; do
    # shellcheck disable=SC2086
    "$tmp/hmexp" -topology "$p" $SWEEP_OPTS -out "$tmp/out-$p" "$FIG" >/dev/null
    [ -s "$tmp/out-$p/$FIG.csv" ] || {
        echo "topology_smoke.sh: $p produced an empty $FIG.csv" >&2
        exit 1
    }
done

echo "== k40-ddr4 must be byte-identical to the default =="
diff "$tmp/out-k40-ddr4/$FIG.csv" "$tmp/out-default/$FIG.csv"

echo "== gh200 and cxl-expansion must differ from Table 1 =="
for p in gh200 cxl-expansion; do
    if cmp -s "$tmp/out-$p/$FIG.csv" "$tmp/out-default/$FIG.csv"; then
        echo "topology_smoke.sh: $p output identical to the default; preset not applied?" >&2
        exit 1
    fi
done

echo "== cross-topology study (figtopo) =="
# shellcheck disable=SC2086
"$tmp/hmexp" $SWEEP_OPTS -out "$tmp/out-figtopo" figtopo >/dev/null
[ -s "$tmp/out-figtopo/figtopo.csv" ]

echo "== daemon serves ?topology= byte-identical to local =="
url="http://127.0.0.1:$BASE_PORT"
"$tmp/hmserved" -addr "127.0.0.1:$BASE_PORT" -cache-dir "$tmp/cache" \
    -drain 5s 2>>"$tmp/daemon.log" &
pids="$pids $!"
wait_healthy "$url"
for p in $PRESETS; do
    # shellcheck disable=SC2086
    "$tmp/hmexp" -server "$url" -topology "$p" $SWEEP_OPTS \
        -out "$tmp/out-srv-$p" "$FIG" >/dev/null
    diff "$tmp/out-srv-$p/$FIG.csv" "$tmp/out-$p/$FIG.csv"
done

echo "== hmsim runs on a non-default preset =="
"$tmp/hmsim" -workload bfs -policy bw-aware -topology gh200 -shrink 16 \
    | grep -q "pages per pool"

echo "== a recorded trace replays on every preset =="
"$tmp/hmsim" -workload bfs -shrink 16 -trace "$tmp/bfs.trc" >/dev/null
for p in $PRESETS; do
    "$tmp/hmsim" -replay "$tmp/bfs.trc" -topology "$p" -json >"$tmp/replay-$p.json" || {
        echo "topology_smoke.sh: replay on $p failed" >&2
        exit 1
    }
done

echo "== unknown topology rejected with exit 2 =="
for cmd in "$tmp/hmexp -topology hbm9000 $FIG" \
    "$tmp/hmsim -topology hbm9000 -workload bfs" \
    "$tmp/hmserved -topology hbm9000 -addr 127.0.0.1:$((BASE_PORT + 1))"; do
    set +e
    # shellcheck disable=SC2086
    out="$($cmd 2>&1)"
    status=$?
    set -e
    if [ "$status" -ne 2 ]; then
        echo "topology_smoke.sh: '$cmd' exited $status, want 2" >&2
        exit 1
    fi
    echo "$out" | grep -q "k40-ddr4" || {
        echo "topology_smoke.sh: '$cmd' rejection does not list presets: $out" >&2
        exit 1
    }
done

echo "topology smoke OK: presets $PRESETS validated locally, via hmserved, and by trace replay"
