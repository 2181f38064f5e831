#!/usr/bin/env bash
# mutants.sh shows that the live-vs-log oracle can fail: it applies each
# mutation of the table below to a fresh copy of a commit and runs the tests
# the mutation names, which must all fail.
#
#   scripts/mutants.sh [commit]     (default HEAD)
#
# A table row gives a name, the file, the exact text, its replacement and the
# tests expected to fail. The script fails when a row's text is not found in
# its file exactly once, when the mutant does not build, or when a named test
# passes against it (the mutant survived). Each copy comes from git archive in
# a temporary directory, so the working tree is never touched.
set -uo pipefail
cd "$(dirname "$0")/.." || exit 2

rev=${1:-HEAD}
git rev-parse --verify -q "$rev^{commit}" >/dev/null || {
  echo "mutants.sh: no commit $rev" >&2
  exit 2
}

names=() files=() olds=() news=() tests=()
mutation() {
  names+=("$1") files+=("$2") olds+=("$3") news+=("$4") tests+=("$5")
}

# The four replay-relevant paths of the core. Each mutation makes the served
# state and the serial replay of its log disagree; the tests named are the
# ones that caught it at 5d8b6be, before the bit-exact suites became
# scenarios over crashtest.Run, in every one of three runs.
mutation "skip the live rerun" internal/core/core.go \
  'n >= s.rerunFrom && !s.covered' \
  'n >= s.rerunFrom && s.rerunFrom > 0 && !s.covered' \
  'TestAdversarialCrashInjectionRecoveryExact TestBatchRunsOneRerun TestBatchSubmitEquivalence
   TestConcurrentRerun TestCrashInjectionBatchedRecoveryExact TestCrashInjectionRecoveryExact
   TestCrashInjectionSnapshotBothWays TestCrashRecoveryThenContinueServing TestFailedRerunStillResyncsIndex
   TestHibernateCrashPointsExact TestLatentTasksMatchEagerInstall TestLazyBootAndLRUCap
   TestLiveIsItsLogReplayed TestLiveVsRecoveredExact TestPropertyRerunErasesPredecessors
   TestRecoveryRunsOneRerun TestRegistryLiveVsRecoveredExact TestServingStressRecovers
   TestSkippedAnswerStillMeetsItsWorker TestSnapshotPassMatchesReplica'

mutation "drop a KindSeed record's apply" internal/core/durability.go \
  'e.seed, e.profiled = st, profiled' \
  '_, _ = st, profiled
			return nil' \
  'TestCleanEvictionWritesNothing TestHibernateCrashPointsExact TestHibernateWakeFingerprintExact
   TestLazyBootAndLRUCap TestLiveIsItsLogReplayed TestLiveVsRecoveredExact
   TestPropertyLifecycleInvisible TestRegistryLiveVsRecoveredExact TestServingStressRecovers
   TestSkippedAnswerStillMeetsItsWorker TestSnapshotPassMatchesReplica'

mutation "reorder a batch's items" internal/core/durability.go \
  'e.cols = &cols' \
  'for i, j := 0, cols.Len()-1; i < j; i, j = i+1, j-1 {
				cols.W[i], cols.W[j] = cols.W[j], cols.W[i]
				cols.T[i], cols.T[j] = cols.T[j], cols.T[i]
				cols.C[i], cols.C[j] = cols.C[j], cols.C[i]
			}
			e.cols = &cols' \
  'TestBatchRunsOneRerun TestBatchSubmitEquivalence TestLiveIsItsLogReplayed TestServingStressRecovers'

mutation "skip ci.resync" internal/core/core.go \
  '		ci.resync(s.cfg.AnswersPerTask)' \
  '		_ = ci' \
  'TestAdversarialCrashInjectionRecoveryExact TestBatchRunsOneRerun TestBatchSubmitEquivalence
   TestCrashInjectionBatchedRecoveryExact TestCrashInjectionRecoveryExact TestCrashInjectionSnapshotBothWays
   TestCrashRecoveryThenContinueServing TestFailedRerunStillResyncsIndex TestHibernateCrashPointsExact
   TestLazyBootAndLRUCap TestLiveIsItsLogReplayed TestLiveVsRecoveredExact
   TestRegistryLiveVsRecoveredExact TestServingStressRecovers TestSnapshotCheckpointInterleaving
   TestSnapshotRoundTripProperty'

# A kill point's recovery report: a torn cut must read as a torn tail. The
# tests named caught it at 5d8b6be too. Since the suites became scenarios,
# TestConcurrentServeMatchesSerialReplay, whose kill points the driver checks
# the same way, catches it as well.
mutation "report no torn tail" internal/core/durability.go \
  'st.LastSeq, st.TornTail' \
  'st.LastSeq, false' \
  'TestAdversarialCrashInjectionRecoveryExact TestCrashInjectionBatchedRecoveryExact TestCrashInjectionRecoveryExact
   TestCrashInjectionSnapshotBothWays TestHibernateCrashMidLogTear TestMultiCampaignCrashRecoveryExact'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failed=0
for i in "${!names[@]}"; do
  dir=$tmp/m$i
  mkdir -p "$dir"
  git archive "$rev" | tar -x -C "$dir"
  f=$dir/${files[$i]}
  body=$(<"$f")
  rest=${body#*"${olds[$i]}"}
  if [ "$rest" = "$body" ] || [ "${rest#*"${olds[$i]}"}" != "$rest" ]; then
    echo "FAIL $((i + 1)) ${names[$i]}: the text is not in ${files[$i]} exactly once"
    failed=1
    continue
  fi
  printf '%s\n' "${body/"${olds[$i]}"/"${news[$i]}"}" >"$f"
  read -ra want -d '' <<<"${tests[$i]}" || true
  run=$(IFS='|' && echo "${want[*]}")
  out=$(cd "$dir" && go test -count=1 -run "^($run)\$" ./internal/core ./internal/registry 2>&1)
  if grep -q '^FAIL.*\[build failed\]\|^# ' <<<"$out"; then
    echo "FAIL $((i + 1)) ${names[$i]}: the mutant does not build"
    echo "$out" | head -20
    failed=1
    continue
  fi
  survived=()
  for name in "${want[@]}"; do
    grep -q "^--- FAIL: $name " <<<"$out" || survived+=("$name")
  done
  if [ ${#survived[@]} -gt 0 ]; then
    echo "FAIL $((i + 1)) ${names[$i]}: survived ${survived[*]}"
    failed=1
  else
    echo "ok   $((i + 1)) ${names[$i]}: caught by ${want[*]}"
  fi
done
exit $failed
