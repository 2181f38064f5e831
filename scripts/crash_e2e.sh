#!/usr/bin/env bash
# Live-vs-recovered kill -9 end-to-end: build the real server, drive a
# contested campaign over HTTP (WAL + per-batch fsync, reruns every 100 answers),
# capture the LIVE /result and /results bytes, kill -9 the process, restart
# it over the same directory, and assert the recovered responses are
# byte-identical to the live ones. This is the black-box face of the
# bit-exact recovery contract the internal live-vs-recovered suites prove
# at float64-bit granularity; it exists so a regression that somehow slips
# past the fingerprint suites still fails loudly at the API surface.
#
# The whole thing runs twice. On the first the reboot is a full replay of
# the segments. The second runs under -max-live-campaigns 1: midway
# through, publishing a second campaign evicts the first, whose hibernation
# writes its snapshot, and the rest of the answers form a suffix past it —
# so the reboot installs the snapshot and runs the math of the suffix only.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'kill -9 $server_pid 2>/dev/null || true; rm -rf "$workdir"' EXIT
server_pid=""

echo "crash_e2e: building docs-server"
go build -o "$workdir/docs-server" ./cmd/docs-server

addr=127.0.0.1:18080
base="http://$addr"
campaign="$base/c/e2e"
# start_server <data dir> <max live campaigns>
start_server() {
    "$workdir/docs-server" -addr "$addr" -wal-dir "$1" -wal-fsync \
        -golden 3 -hit 3 -redundancy 3 -max-live-campaigns "$2" &
    server_pid=$!
    for _ in $(seq 1 100); do
        if curl -sf "$base/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "crash_e2e: server did not come up" >&2
    exit 2
}

stats_field() { # stats_field <field>: one scalar out of the campaign's /stats
    curl -sf "$campaign/stats" | python3 -c "import json,sys; print(json.load(sys.stdin)['$1'])"
}

cat > "$workdir/drive.py" <<'PYEOF'
import json, sys, urllib.request

# drive.py <campaign url> <publish|answer> <first round> <last round>
base, mode, first, last = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])

def call(method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    if data:
        req.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())

# A contested task mix: sports questions with golden truths for the
# gauntlet plus open tasks the workers will split on.
sports = [
    "Does Michael Jordan win more NBA championships than Kobe Bryant?",
    "Did the Chicago Bulls win more championships than the Boston Celtics in the 1990s NBA?",
    "Compare the height of LeBron James and Stephen Curry.",
    "Is Tim Duncan a power forward in the NBA?",
    "Did Magic Johnson play for the Los Angeles Lakers?",
    "Is Shaquille O'Neal a center in the NBA?",
    "Did Larry Bird play for the Boston Celtics?",
    "Does Kareem Abdul-Jabbar score more points than Karl Malone in the NBA?",
    "Is Scottie Pippen a teammate of Michael Jordan on the Chicago Bulls?",
    "Did Hakeem Olajuwon win the NBA championship with the Houston Rockets?",
]
tasks = []
for i, text in enumerate(sports):
    golden = 0 if i < 4 else -1  # first four carry ground truth -> gauntlet pool
    tasks.append({"id": i, "text": text, "choices": ["yes", "no"], "golden_truth": golden})
if mode == "publish":
    out = call("POST", "/publish", {"tasks": tasks})
    print("published:", out["published"], "golden:", out["golden"])

# Deterministic contested answering: worker w{i} answers by a fixed hash of
# (worker, task) so reruns of this script reproduce the same campaign.
answered = 0
for round_ in range(first, last):
    w = f"w{round_ % 5}"
    got = call("GET", f"/request?worker={w}&k=3")["tasks"]
    for t in got:
        choice = (len(w) * 31 + t["id"] * 7 + round_ // 5) % 2
        call("POST", "/submit", {"worker": w, "task": t["id"], "choice": choice})
        answered += 1
if first < last and answered == 0:
    sys.exit(f"rounds {first}-{last} answered nothing")
print(f"rounds {first}-{last}: {answered} answers")
PYEOF

# run_pass <name> <max live campaigns> <expected recovered_from_snapshot>
run_pass() {
    local name=$1 live=$2 want_snapshot=$3 out="$workdir/$1"
    mkdir "$out"
    start_server "$out/data" "$live"
    echo "crash_e2e[$name]: driving contested campaign (pid $server_pid)"
    python3 "$workdir/drive.py" "$campaign" publish 0 8
    if [ "$want_snapshot" = True ]; then
        # Under a cap of one, publishing a second campaign hibernates e2e,
        # which writes its snapshot.
        python3 "$workdir/drive.py" "$base/c/other" publish 0 0
        if [ ! -f "$out/data/campaigns/e2e/snapshot" ]; then
            echo "crash_e2e[$name]: FAIL — evicting e2e wrote no snapshot" >&2
            exit 1
        fi
    fi
    python3 "$workdir/drive.py" "$campaign" answer 8 40

    echo "crash_e2e[$name]: capturing live responses"
    curl -sf "$campaign/results" > "$out/live_results.json"
    for task in 0 4 5 6; do
        curl -sf "$campaign/result?task=$task" > "$out/live_result_$task.json"
    done

    echo "crash_e2e[$name]: kill -9 $server_pid"
    kill -9 "$server_pid"
    wait "$server_pid" 2>/dev/null || true

    start_server "$out/data" "$live"
    echo "crash_e2e[$name]: comparing recovered responses (pid $server_pid)"
    local got_snapshot
    got_snapshot=$(stats_field recovered_from_snapshot)
    if [ "$got_snapshot" != "$want_snapshot" ]; then
        echo "crash_e2e[$name]: FAIL — recovered_from_snapshot=$got_snapshot, want $want_snapshot" >&2
        exit 1
    fi
    curl -sf "$campaign/results" > "$out/recovered_results.json"
    for task in 0 4 5 6; do
        curl -sf "$campaign/result?task=$task" > "$out/recovered_result_$task.json"
    done

    local fail=0
    if ! cmp -s "$out/live_results.json" "$out/recovered_results.json"; then
        echo "crash_e2e[$name]: FAIL — /results diverged after kill -9" >&2
        diff <(head -c 2000 "$out/live_results.json") \
             <(head -c 2000 "$out/recovered_results.json") >&2 || true
        fail=1
    fi
    for task in 0 4 5 6; do
        if ! cmp -s "$out/live_result_$task.json" "$out/recovered_result_$task.json"; then
            echo "crash_e2e[$name]: FAIL — /result?task=$task diverged after kill -9" >&2
            diff "$out/live_result_$task.json" "$out/recovered_result_$task.json" >&2 || true
            fail=1
        fi
    done
    if [ "$fail" -ne 0 ]; then
        exit 1
    fi

    kill -9 "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
    echo "crash_e2e[$name]: OK — live and recovered /result bytes identical"
}

run_pass full-replay 0 False
run_pass snapshot-suffix 1 True
