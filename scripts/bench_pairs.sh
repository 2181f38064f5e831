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
# [q1-q3] of each side, the relative change of the medians against the
# metric's bound, the no-regression verdict, and in how many pairs the tree
# came out lower with the two-sided sign-test p-value of that count (a tie
# counts for neither side). The verdict is "over bound" when the tree's
# median is worse than the ref's by more than the bound, "unresolved" when
# the ref's own q1-q3 spread is wider than the bound and not every tree run
# beats every ref run, and "within bound" otherwise.
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
bounds=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json)
metrics=$(echo "$bounds" | awk '{ print $1 }')
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

sort -k3,3 -k4,4 -k2,2 -k5,5g "$runs" | awk -v pairs="$pairs" -v bounds="$bounds" '
    function quantile(v, n, p,    h, lo) { # v[1..n] ascending, linear interpolation
        h = (n - 1) * p + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function signp(k, n,    i, c, tail) { # two-sided sign test: P(X <= k) doubled, X ~ B(n, 1/2)
        if (n == 0) return 1
        c = 1; tail = 0
        for (i = 0; i <= k; i++) { tail += c; c = c * (n - i) / (i + 1) }
        tail = 2 * tail / 2 ^ n
        return tail > 1 ? 1 : tail
    }
    function flush(    side, i, n, v, line, med, q1, q3, lo, hi, wins, losses, change, spread, verdict) {
        if (key == "") return
        line = sprintf("%-13s %-22s", wl, metric)
        for (side = 1; side <= 2; side++) {
            n = 0
            for (i = 1; i <= cnt[sides[side]]; i++) v[++n] = sorted[sides[side], i]
            med[side] = quantile(v, n, 0.5); q1[side] = quantile(v, n, 0.25); q3[side] = quantile(v, n, 0.75)
            lo[side] = v[1]; hi[side] = v[n]
            line = line sprintf("  %s %.6g [%.6g-%.6g]", sides[side], med[side], q1[side], q3[side])
        }
        wins = losses = 0
        for (i = 1; i <= pairs; i++) {
            if (!(("tree", i) in byPair) || !(("ref", i) in byPair)) continue
            if (byPair["tree", i] < byPair["ref", i]) wins++
            if (byPair["tree", i] > byPair["ref", i]) losses++
        }
        change = med[1] == 0 ? (med[2] == 0 ? 0 : 1) : (med[2] - med[1]) / med[1]
        spread = med[1] == 0 ? 0 : (q3[1] - q1[1]) / med[1]
        if (spread > bound[metric] && hi[2] >= lo[1]) verdict = "unresolved"
        else if (change > bound[metric]) verdict = "over bound"
        else verdict = "within bound"
        print line sprintf("  change %+.2f%% (bound %g%%) %s  tree lower in %d/%d, p=%.3g",
            100 * change, 100 * bound[metric], verdict, wins, pairs, signp(wins < losses ? wins : losses, wins + losses))
        delete cnt; delete sorted; delete byPair
    }
    BEGIN {
        sides[1] = "ref"; sides[2] = "tree"
        n = split(bounds, b, "\n")
        for (i = 1; i <= n; i++) { split(b[i], f, " "); bound[f[1]] = f[2] }
    }
    {
        if ($3 SUBSEP $4 != key) { flush(); key = $3 SUBSEP $4; wl = $3; metric = $4 }
        sorted[$2, ++cnt[$2]] = $5 + 0
        byPair[$2, $1] = $5 + 0
    }
    END { flush() }'
