#!/usr/bin/env sh
# Migration smoke test: the dynamic page-migration subsystem end to end on
# real binaries, with the invariants that hold it together checked:
#
#   - figmigtopo (BW-AWARE vs BW-AWARE+counter vs BW-AWARE+ewma vs oracle
#     on every topology preset) renders a non-empty CSV, twice, and the two
#     renders are byte-identical — migration is deterministic;
#   - a figure rendered with -migrate off is byte-identical to one rendered
#     with no migration flags at all — the disabled path changes nothing;
#   - hmsim -migrate on reports migration activity in its summary;
#   - an hmserved daemon serves ?migrate= figures byte-identical to the
#     corresponding local renders;
#   - hmexp, hmsim, and hmserved all reject an invalid -migrate spec (and
#     an unknown -migrate-policy, and a spec the -migrate-policy override
#     makes invalid) with exit status 2;
#   - the daemon refuses bad figure options with 400 before queueing a
#     job, and hmexp -server refuses them with exit 2 before sending a
#     request.
#
# Everything binds to 127.0.0.1 only and uses throwaway cache dirs.
set -eu

BASE_PORT="${BASE_PORT:-18101}"
SWEEP_OPTS="-shrink 16 -workloads bfs"

cd "$(dirname "$0")/.."

tmp="$(mktemp -d "${TMPDIR:-/tmp}/hmmig.XXXXXX")"
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
    echo "migration_smoke.sh: daemon at $1 never became healthy" >&2
    cat "$tmp"/daemon.log >&2 || true
    return 1
}

echo "== figmigtopo renders on every preset, byte-identical across reruns =="
# shellcheck disable=SC2086
"$tmp/hmexp" $SWEEP_OPTS -out "$tmp/out-run1" figmigtopo >/dev/null
# shellcheck disable=SC2086
"$tmp/hmexp" $SWEEP_OPTS -out "$tmp/out-run2" figmigtopo >/dev/null
[ -s "$tmp/out-run1/figmigtopo.csv" ] || {
    echo "migration_smoke.sh: figmigtopo produced an empty CSV" >&2
    exit 1
}
diff "$tmp/out-run1/figmigtopo.csv" "$tmp/out-run2/figmigtopo.csv"
for preset in k40-ddr4 gh200 cxl-expansion; do
    grep -q "$preset" "$tmp/out-run1/figmigtopo.csv" || {
        echo "migration_smoke.sh: figmigtopo CSV is missing preset $preset" >&2
        exit 1
    }
done

echo "== -migrate off must not change figure bytes =="
# shellcheck disable=SC2086
"$tmp/hmexp" $SWEEP_OPTS -out "$tmp/out-plain" fig3 >/dev/null
# shellcheck disable=SC2086
"$tmp/hmexp" -migrate off $SWEEP_OPTS -out "$tmp/out-migoff" fig3 >/dev/null
diff "$tmp/out-plain/fig3.csv" "$tmp/out-migoff/fig3.csv"

echo "== hmsim -migrate on reports migration activity =="
"$tmp/hmsim" -workload bfs -policy bw-aware -capacity 0.1 -shrink 16 -migrate on \
    | grep -q "^migration" || {
    echo "migration_smoke.sh: hmsim -migrate on printed no migration summary" >&2
    exit 1
}

echo "== daemon serves ?migrate= byte-identical to local =="
url="http://127.0.0.1:$BASE_PORT"
"$tmp/hmserved" -addr "127.0.0.1:$BASE_PORT" -cache-dir "$tmp/cache" \
    -drain 5s 2>>"$tmp/daemon.log" &
pids="$pids $!"
wait_healthy "$url"
for spec in on "policy=ewma"; do
    # shellcheck disable=SC2086
    "$tmp/hmexp" -migrate "$spec" $SWEEP_OPTS -out "$tmp/out-local-$spec" figmig >/dev/null
    # shellcheck disable=SC2086
    "$tmp/hmexp" -server "$url" -migrate "$spec" $SWEEP_OPTS \
        -out "$tmp/out-srv-$spec" figmig >/dev/null
    diff "$tmp/out-srv-$spec/figmig.csv" "$tmp/out-local-$spec/figmig.csv"
done

echo "== daemon refuses bad figure options with 400 =="
# http_status url: the HTTP status code of a GET.
http_status() {
    if command -v curl >/dev/null 2>&1; then
        curl -s -o /dev/null -w '%{http_code}' "$1"
    else
        wget -S -O /dev/null "$1" 2>&1 | awk '/^  HTTP\//{code=$2} END{print code}'
    fi
}
# metric name: one unlabeled counter from the daemon's /metrics.
metric() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$url/metrics"
    else
        wget -qO- "$url/metrics"
    fi | awk -v m="$1" '$1 == m {print $2}'
}
for q in "fig3?workloads=nosuch" \
    "figmig?migrate=alpha%3D0&migrate-policy=ewma" \
    "fig3?shrink=0" "fig3?workers=-1"; do
    status="$(http_status "$url/v1/figures/$q")"
    if [ "$status" != 400 ]; then
        echo "migration_smoke.sh: GET /v1/figures/$q answered $status, want 400" >&2
        exit 1
    fi
done

echo "== hmexp -server refuses bad options before sending a request =="
before="$(metric hmserved_http_requests_total)"
set +e
"$tmp/hmexp" -server "$url" -workloads nosuch fig3 >/dev/null 2>"$tmp/nosuch.log"
status=$?
set -e
after="$(metric hmserved_http_requests_total)"
if [ "$status" -ne 2 ] || [ "$(grep -c . "$tmp/nosuch.log")" -ne 1 ] ||
    ! grep -q nosuch "$tmp/nosuch.log"; then
    echo "migration_smoke.sh: hmexp -server -workloads nosuch exited $status, want 2 with one error naming the workload:" >&2
    cat "$tmp/nosuch.log" >&2
    exit 1
fi
# The second /metrics scrape is the only request between the two reads.
if [ "$after" != "$((before + 1))" ]; then
    echo "migration_smoke.sh: hmexp -server sent a request for rejected options ($before -> $after requests)" >&2
    exit 1
fi

echo "== invalid -migrate / -migrate-policy rejected with exit 2 =="
for cmd in "$tmp/hmexp -migrate epoch=banana fig3" \
    "$tmp/hmexp -migrate-policy mystery fig3" \
    "$tmp/hmexp -migrate alpha=0 -migrate-policy ewma figmig" \
    "$tmp/hmsim -migrate minheat=0 -workload bfs" \
    "$tmp/hmsim -migrate-policy mystery -workload bfs" \
    "$tmp/hmsim -migrate alpha=0 -migrate-policy ewma -workload bfs" \
    "$tmp/hmserved -migrate wb=-1 -addr 127.0.0.1:$((BASE_PORT + 1))" \
    "$tmp/hmserved -migrate-policy mystery -addr 127.0.0.1:$((BASE_PORT + 1))" \
    "$tmp/hmserved -migrate alpha=0 -migrate-policy ewma -addr 127.0.0.1:$((BASE_PORT + 1))"; do
    set +e
    # shellcheck disable=SC2086
    $cmd >/dev/null 2>&1
    status=$?
    set -e
    if [ "$status" -ne 2 ]; then
        echo "migration_smoke.sh: '$cmd' exited $status, want 2" >&2
        exit 1
    fi
done

echo "migration smoke OK: figmigtopo deterministic, disabled path unchanged, daemon queries and CLI flags validated"
