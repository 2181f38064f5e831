#!/usr/bin/env bash
# Paired runs of the repository benchmark: a reference commit against the
# working tree, alternating (ref tree, tree ref, ...) so that machine drift
# — the reference machine is at times half as fast as at others — lands on
# both sides alike. This is the protocol every performance claim in
# CHANGES.md was measured with; nothing under cmd/docs-perf is touched, each
# side runs its own unmodified `go run ./cmd/docs-perf`.
#
# Usage: bench_pairs.sh <ref> [workload] [pairs] [seed]
#   ref       commit-ish to compare against (extracted with `git archive`
#             into .bench_build/ref-<sha>/, reused when already there)
#   workload  lifecycle | ingest-batch | assign-heavy | churn | all (default all)
#   pairs     number of ref/tree pairs (default 10)
#   seed      workload seed (default 20160412)
#
# Prints every run's end-to-end metrics (the ones BENCHMARK.json bounds; all
# are lower-is-better) as it goes, then per workload and metric the median
# [q1-q3] of each side and in how many pairs the tree came out lower.
set -euo pipefail
cd "$(dirname "$0")/.."
ref=${1:?usage: bench_pairs.sh <ref> [workload] [pairs] [seed]}
workload=${2:-all}
pairs=${3:-10}
seed=${4:-20160412}

sha=$(git rev-parse --short "$ref^{commit}")
build=$PWD/.bench_build
ref_tree=$build/ref-$sha
if [ ! -d "$ref_tree" ]; then
    mkdir -p "$ref_tree"
    git archive "$sha" | tar -x -C "$ref_tree"
fi
metrics=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); print $2 }' BENCHMARK.json)
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

one_run() { # $1 = side (ref|tree), $2 = its source tree, $3 = pair number
    (cd "$2" && go run ./cmd/docs-perf -workload "$workload" -seed "$seed" -build-dir "$build/pairs-$1") |
        awk -v side="$1" -v pair="$3" -v names="$metrics" '
            BEGIN { n = split(names, a, "\n"); for (i = 1; i <= n; i++) want[a[i]] = 1 }
            NF == 4 && ($2 in want) { print pair, side, $1, $2, $3 }' | tee -a "$runs"
}

echo "bench_pairs: $sha (ref) vs working tree, workload $workload, seed $seed, $pairs pairs"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        one_run ref "$ref_tree" "$i"
        one_run tree "$PWD" "$i"
    else
        one_run tree "$PWD" "$i"
        one_run ref "$ref_tree" "$i"
    fi
done

sort -k3,3 -k4,4 -k2,2 -k5,5g "$runs" | awk -v pairs="$pairs" '
    function quantile(v, n, p,    h, lo) { # v[1..n] ascending, linear interpolation
        h = (n - 1) * p + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function flush(    side, i, n, v, line) {
        if (key == "") return
        line = sprintf("%-13s %-22s", wl, metric)
        for (side = 1; side <= 2; side++) {
            n = 0
            for (i = 1; i <= cnt[sides[side]]; i++) v[++n] = sorted[sides[side], i]
            line = line sprintf("  %s %.6g [%.6g-%.6g]", sides[side], quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
        }
        wins = 0
        for (i = 1; i <= pairs; i++) if (byPair["tree", i] < byPair["ref", i]) wins++
        print line sprintf("  tree lower in %d/%d", wins, pairs)
        delete cnt; delete sorted; delete byPair
    }
    BEGIN { sides[1] = "ref"; sides[2] = "tree" }
    {
        if ($3 SUBSEP $4 != key) { flush(); key = $3 SUBSEP $4; wl = $3; metric = $4 }
        sorted[$2, ++cnt[$2]] = $5 + 0
        byPair[$2, $1] = $5 + 0
    }
    END { flush() }'
