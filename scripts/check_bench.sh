#!/usr/bin/env bash
# The two deterministic, machine-independent guards over docs-bench:
# -exp accuracy (seeded; DOCS-vs-MV margins against the committed
# bench/BENCH_accuracy.json) and -exp density (capped heap vs all-live heap
# in the same run). Timings are not gated here or anywhere: the reference
# machine drifts by up to 2x, so they are measured by
# `go run ./cmd/docs-perf` and compared in pairs (cmd/docs-perf/README.md).
#
# Usage: check_bench.sh [out-dir]. The fresh reports land in out-dir (a
# mktemp directory by default; CI names one so it can upload them) and are
# compared against the committed bench/*.json, which this script never
# writes: `git status --porcelain bench/` stays empty.
set -euo pipefail
cd "$(dirname "$0")/.."
out_dir=${1:-$(mktemp -d)}
mkdir -p "$out_dir"

# Preflight: numbers from a tree that violates the determinism or
# lock-order contracts are not worth measuring. docs-lint findings print
# as file:line: analyzer: message and abort the run.
echo "check_bench: preflight docs-lint ./..."
go run ./cmd/docs-lint ./...

# Accuracy guard: adversarial crowds must not erase DOCS's edge. The
# committed bench/BENCH_accuracy.json carries the DOCS(TI) − MV margin per
# gated spammer fraction; a fresh quick run (seeded, deterministic — the
# numbers are machine-independent) must reproduce every margin within
# BENCH_ACCURACY_TOLERANCE (absolute accuracy points, default 0.05) and
# must keep DOCS strictly above majority vote at the top spammer fraction.
acc_json=bench/BENCH_accuracy.json
fresh_acc_json=$out_dir/BENCH_accuracy.json
acc_tol=${BENCH_ACCURACY_TOLERANCE:-0.05}
parse_margins() { # $1=file -> lines "spammer_fraction docs_minus_mv" from the margins array
    awk '
        /"margins":/ { inm = 1 }
        inm && /"spammer_fraction":/ { f = $2; gsub(/,/, "", f) }
        inm && /"docs_minus_mv":/    { v = $2; gsub(/,/, "", v); print f + 0, v + 0 }
    ' "$1"
}
committed_margins=$(parse_margins "$acc_json")
if [ -z "$committed_margins" ]; then
    echo "check_bench: no margins in committed $acc_json" >&2
    exit 2
fi
echo "check_bench: running docs-bench -exp accuracy (DOCS vs MV margin guard)"
go run ./cmd/docs-bench -exp accuracy -quick -accuracy-json "$fresh_acc_json"
fresh_margins=$(parse_margins "$fresh_acc_json")
awk -v tol="$acc_tol" '
    NR == FNR { base[$1] = $2; next }
    { fresh[$1] = $2; if ($1 + 0 > top) top = $1 + 0 }
    END {
        fail = 0
        for (f in base) {
            if (!(f in fresh)) {
                printf "check_bench: FAIL — spammer fraction %s missing from fresh accuracy run\n", f
                fail = 1
                continue
            }
            printf "check_bench: spam %.0f%%: DOCS-MV margin %+.3f (committed %+.3f, floor %+.3f)\n",
                f * 100, fresh[f], base[f], base[f] - tol
            if (fresh[f] < base[f] - tol) {
                printf "check_bench: FAIL — DOCS-MV margin at spam %.0f%% regressed past tolerance\n", f * 100
                fail = 1
            }
        }
        if (fresh[top] <= 0) {
            printf "check_bench: FAIL — DOCS does not strictly beat MV at the top spammer fraction (%+.3f)\n", fresh[top]
            fail = 1
        }
        if (fail) exit 1
        printf "check_bench: OK — DOCS holds its margin over MV at every gated mix, strictly above at spam %.0f%%\n", top * 100
    }' <(echo "$committed_margins") <(echo "$fresh_margins")

# Density guard: the hibernating LRU cap must actually bound memory. The
# experiment itself is the correctness check (every sampled cold wake is
# fingerprint-verified bit-identical to its pre-hibernation state and the
# resident set is asserted <= the cap; any violation fails the run), so
# the shell-level gate is purely structural and machine-independent:
# capped-serving heap must come in at or below HALF the all-live heap in
# the SAME fresh run. Absolute heap and wake latencies are machine-
# dependent and are recorded, not gated. The committed
# bench/BENCH_density.json (full-scale, 10k campaigns) is the reference
# and is not read here.
density_json=$out_dir/BENCH_density.json
echo "check_bench: running docs-bench -exp density (bounded-RSS structural guard)"
go run ./cmd/docs-bench -exp density -quick -density-json "$density_json"
awk '
    /"heap_all_live_bytes":/ { v = $2; gsub(/,/, "", v); all = v + 0 }
    /"heap_capped_bytes":/   { v = $2; gsub(/,/, "", v); capped = v + 0 }
    END {
        if (all <= 0 || capped <= 0) {
            printf "check_bench: FAIL — could not parse heap fields from the density report\n"
            exit 2
        }
        printf "check_bench: density heap all-live %d bytes, capped %d bytes (%.1fx reduction)\n",
            all, capped, all / capped
        if (capped * 2 > all) {
            printf "check_bench: FAIL — capped heap is not below half the all-live heap\n"
            exit 1
        }
        printf "check_bench: OK — hibernating cap bounds resident memory\n"
    }' "$density_json"
