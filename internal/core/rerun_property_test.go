package core

import (
	"testing"

	"docs/internal/wal"
)

// replayToSubmission applies recs to a fresh serial system until it has
// accepted n regular answers.
func replayToSubmission(t *testing.T, cfg Config, recs []wal.Record, n int64) *System {
	t.Helper()
	s := newSystem(t, cfg)
	t.Cleanup(func() { s.Close() })
	for _, rec := range recs {
		if s.submissions.Load() == n {
			break
		}
		if err := s.applyRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.submissions.Load(); got != n {
		t.Fatalf("stream holds %d regular answers, want %d", got, n)
	}
	return s
}

// TestPropertyRerunErasesPredecessors: a batch rerun erases every rerun
// before it, which is what lets replay run the last one alone. The same
// logged stream is replayed to its last rerun boundary b once with the
// cadence that produced it (b/z reruns) and once with RerunEvery = b (one
// rerun), and the two fingerprints must be identical — with a golden
// gauntlet (every worker anchored) and without one (every worker starts
// the rerun at the default quality, never at her incremental estimate).
func TestPropertyRerunErasesPredecessors(t *testing.T) {
	const z = 20
	for _, tc := range []struct {
		name   string
		golden int
	}{
		{"anchored", 4},
		{"unanchored", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{GoldenCount: tc.golden, HITSize: 4, AnswersPerTask: 3, RerunEvery: z,
				WALSegmentBytes: 1 << 10}
			recs := runLoggedCampaign(t, cfg, t.TempDir(), 80)
			all := newSystem(t, cfg)
			defer all.Close()
			applyPrefix(t, all, recs)
			b := all.submissions.Load() / z * z
			if b < 2*z {
				t.Fatalf("campaign reached only %d regular answers", all.submissions.Load())
			}

			every := replayToSubmission(t, cfg, recs, b)
			cfg.RerunEvery = int(b)
			once := replayToSubmission(t, cfg, recs, b)
			if got, want := every.reruns.Load(), b/z; got != want {
				t.Fatalf("cadence replay ran %d reruns, want %d", got, want)
			}
			if got := once.reruns.Load(); got != 1 {
				t.Fatalf("single-rerun replay ran %d reruns", got)
			}
			if every.Fingerprint() != once.Fingerprint() {
				t.Fatalf("%d reruns vs 1 differ\n%s", b/z, DiffFingerprints(every.Fingerprint(), once.Fingerprint(), 4))
			}
		})
	}
}
