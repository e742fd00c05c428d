# lib.sh — shared setup and helpers for the smoke scripts; source it with
#   . "$(dirname "$0")/lib.sh"
#
# It sets WORK, the scratch dir, and KEEP_WORK. With SMOKE_WORK set the
# scratch dir is that directory and survives the run (CI points it at a
# directory uploaded as an artifact on failure); without it a mktemp dir
# is used and removed on exit unless KEEP_WORK=1.
#
# It also installs cleanup as the EXIT trap. Every script appends the PID
# of each daemon it starts to PIDS, and empties PIDS once it has drained
# them all.
#
# SMOKE names the sourcing script (smoke_cluster.sh -> smoke-cluster) and
# prefixes the helpers' failure messages.

SMOKE=$(basename "$0" .sh | tr _ -)

if [ -n "${SMOKE_WORK:-}" ]; then
    WORK=$SMOKE_WORK
    mkdir -p "$WORK"
    KEEP_WORK=1
else
    WORK=$(mktemp -d)
    KEEP_WORK=0
fi

PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill -9 "$pid" 2>/dev/null || true
    done
    [ "$KEEP_WORK" = 1 ] || rm -rf "$WORK"
}
trap cleanup EXIT

# fetch prints the body of a GET, failing on an HTTP error.
fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

# ---- three-node cluster (smoke-cluster, smoke-obs, smoke-chaos) ----

# cluster_ports sets P1..P3, A1..A3 and PEERS for nodes n1..n3 on ports
# $1, $1+1 and $1+2. Static membership needs URLs up front, so callers
# pick the base from their PID instead of using :0 + ready-file.
cluster_ports() {
    P1=$1
    P2=$(($1 + 1))
    P3=$(($1 + 2))
    A1="http://127.0.0.1:$P1"
    A2="http://127.0.0.1:$P2"
    A3="http://127.0.0.1:$P3"
    PEERS="n1=$A1,n2=$A2,n3=$A3"
}

addr_of() {
    case $1 in
    n1) echo "$A1" ;;
    n2) echo "$A2" ;;
    n3) echo "$A3" ;;
    esac
}

# start_node starts node $1 on port $2 with its own store dir, appending
# to $WORK/$1.log; $3 = extra flags appended verbatim. It sets PID_<id>.
# RF overrides the replication factor (default 2).
start_node() {
    # shellcheck disable=SC2086
    "$WORK/layoutd" -addr "127.0.0.1:$2" -jobs 2 -queue 8 \
        -node-id "$1" -peers "$PEERS" -replicas "${RF:-2}" -health-interval 250ms \
        -store-dir "$WORK/store-$1" ${3:-} >>"$WORK/$1.log" 2>&1 &
    eval "PID_$1=$!"
    PIDS="$PIDS $!"
}

# wait_healthy waits until node $1's /healthz reports status ok, then
# requires its node_id in the body. With $2 = node-id-only it waits for
# the node_id alone, so a node booting into degraded mode counts as up.
wait_healthy() {
    a=$(addr_of "$1")
    want='"status": "ok"'
    [ "${2:-}" = node-id-only ] && want="\"node_id\": \"$1\""
    i=0
    while ! fetch "$a/healthz" 2>/dev/null | grep -q "$want"; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "$SMOKE: $1 never became healthy" >&2
            cat "$WORK/$1.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    fetch "$a/healthz" | grep -q "\"node_id\": \"$1\"" || {
        echo "$SMOKE: $1 healthz lacks its node_id" >&2
        exit 1
    }
}

# wait_converged waits until node $1 sees both peers up. The first health
# poll races the other nodes' listeners and may mark them down; a write
# before the next poll would skip a forward or a replica push.
wait_converged() {
    a=$(addr_of "$1")
    i=0
    while [ "$(fetch "$a/metrics" | grep -c '^layoutd_peer_health{peer="n[0-9]*"} 2$')" != 2 ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "$SMOKE: $1 never saw both peers up" >&2
            fetch "$a/metrics" | grep '^layoutd_peer_health' >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}
