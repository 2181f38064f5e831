package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"docs/internal/crashtest"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/wal"
)

// The crash-injection sweeps. One serial campaign runs with the WAL armed;
// its log is then "killed" at drawn points — whole records, and torn bytes
// of the next frame — and each image boots bit-identical to a reference
// that applied exactly the surviving records through the serial path
// (campaigns.Replay). That is the durability contract: recovery IS the
// serial replay that live serving is.

// honest is the honest traffic: one campaign of n tasks that workers
// w0–w10 visit in turn until it is dry, a regular answer wrong at 15 %.
func honest(n int) func(*campaigns, *mathx.Rand) {
	return func(c *campaigns, r *mathx.Rand) {
		c.publish("c", n, 0)
		visits(r, c.visit, "c", 11, 4, 0.15)
	}
}

// runLoggedCampaign runs the honest traffic over n tasks and leaves its log
// in dir, returning the records it holds.
func runLoggedCampaign(t *testing.T, cfg Config, dir string, n int) []wal.Record {
	t.Helper()
	return runLoggedTasks(t, cfg, dir, concTasks(kb.MustDefault().Domains().Size(), n))
}

// runLoggedTasks is runLoggedCampaign over the caller's task set.
func runLoggedTasks(t *testing.T, cfg Config, dir string, tasks []*model.Task) []wal.Record {
	t.Helper()
	c := scenario(cfg, false)
	c.tasks = func(int, int, int) []*model.Task { return tasks }
	live := c.run(t, script{Seed: 42, Traffic: honest(len(tasks))})
	crashtest.CopyTree(t, filepath.Join(live.root, "campaigns", "c"), dir)
	return crashtest.ReadStream(t, dir)
}

// applyPrefix replays records through a WAL-less reference system — the
// uninterrupted serial run the recovered state must match bit for bit.
func applyPrefix(t *testing.T, s *System, recs []wal.Record) {
	t.Helper()
	for _, rec := range recs {
		if err := s.applyRecord(&entry{Record: rec}); err != nil {
			t.Fatal(err)
		}
	}
}

// sweep boots kills drawn kill points of a campaign served traffic, plus
// the image of everything but a torn last record and the points extra
// adds. Its three traffics are the honest one, an adversarial crowd's and
// a batched one.
func sweep(t *testing.T, cfg Config, traffic func(*campaigns, *mathx.Rand), kills int, extra func([]wal.Record) []crashtest.Kill) {
	t.Helper()
	cfg.WALSegmentBytes = 1 << 10
	scenario(cfg, false).run(t, script{Seed: 7, Traffic: traffic, Kills: kills, Extra: func(recs []wal.Record) []crashtest.Kill {
		if len(recs) < 20 {
			t.Fatalf("the campaign logged only %d records", len(recs))
		}
		ks := []crashtest.Kill{{Surviving: len(recs) - 1, Torn: 5}}
		if extra != nil {
			ks = append(ks, extra(recs)...)
		}
		return ks
	}})
}

// TestCrashInjectionRecoveryExact is the sweep over the honest traffic: 100
// kill points over a logged campaign of 60 tasks.
func TestCrashInjectionRecoveryExact(t *testing.T) {
	sweep(t, Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20}, honest(60), 99, nil)
}

// TestCrashRecoveryThenContinueServing recovers from a mid-campaign crash
// and pushes the remaining answer stream through the recovered system; the
// final state must equal the uninterrupted run's. This is the "restart
// under traffic" scenario: sequence numbers continue, re-logging works,
// and nothing double-applies.
func TestCrashRecoveryThenContinueServing(t *testing.T) {
	cfg := Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20,
		WALSegmentBytes: 1 << 10}
	srcDir := t.TempDir()
	recs := runLoggedCampaign(t, cfg, srcDir, 40)
	log := crashtest.ReadLog(t, srcDir)

	full := newSystem(t, cfg)
	applyPrefix(t, full, recs)
	want := full.Fingerprint()

	for _, cut := range []int{1, len(recs) / 3, len(recs) / 2, len(recs) - 1} {
		crashDir := t.TempDir()
		log.Cut(t, crashDir, crashtest.Kill{Surviving: cut})
		s := bootSystem(t, cfg, crashDir)
		// Every cut keeps the publish record (seq 1), so the lost tail is
		// answers alone; resubmitting them is the traffic that resumes.
		for _, rec := range recs[cut:] {
			if rec.Kind != wal.KindAnswer {
				t.Fatalf("cut=%d: the lost tail holds a kind-%d record; only answers can be resubmitted", cut, rec.Kind)
			}
			if err := s.Submit(rec.Worker, rec.Task, rec.Choice); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Fingerprint(); got != want {
			t.Fatalf("cut=%d: continued state differs from uninterrupted run\n%s", cut, diff(got, want))
		}
		bootsAsLive(t, s, cfg, crashDir) // and the continued log boots to it
	}
}

// TestConcurrentServeWithWALRecovers: the served traffic — six clients at
// once, group commit under real contention, run with -race — over more
// golden tasks, a higher redundancy and larger segments: its log boots to
// the answers, batch counters and fingerprint the live campaign held, so
// the final batch inference over either is the same bits.
func TestConcurrentServeWithWALRecovers(t *testing.T) {
	served(t, Config{GoldenCount: 6, HITSize: 4, AnswersPerTask: 5, RerunEvery: 40, LeaseTTL: time.Minute, WALSegmentBytes: 1 << 11}, false)
}

// TestRecoveryDeterminism: replay is a pure function of the log bytes. A
// campaign restarted from its log (a first recovery) prints as a second
// boot of the same log does.
func TestRecoveryDeterminism(t *testing.T) {
	scenario(Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20}, false).run(t, script{Seed: 42,
		Traffic: func(c *campaigns, r *mathx.Rand) {
			honest(30)(c, r)
			c.restart("c")
		}})
}

// TestRecoveryDoesNotDoubleMergePersistentStore: golden profiling merges
// worker stats into the long-run store at serving time, and a file-backed
// store already holds (and durably logged) those merges. Replaying the
// WAL must not merge them again — before the fix every restart compounded
// each profiled worker's statistics. Every boundary of a gauntlet and three
// restarts boots to the live state, whose fingerprint holds the store.
func TestRecoveryDoesNotDoubleMergePersistentStore(t *testing.T) {
	scenario(Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: -1}, true).run(t, script{Every: true,
		Traffic: func(c *campaigns, _ *mathx.Rand) {
			c.publish("c", 20, 0)
			c.gauntlet("c", "w0", 4)
			for restart := 0; restart < 3; restart++ {
				c.restart("c")
			}
		}})
}

// TestRecoverRefusesAfterServing pins the API contract: Recover is a
// construction-time call.
func TestRecoverRefusesAfterServing(t *testing.T) {
	s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
	if err := s.Publish(concTasks(s.m, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(t.TempDir()); err == nil {
		t.Fatal("Recover after Publish must fail")
	}
	if _, err := s.Recover(""); err == nil {
		t.Fatal("Recover with empty dir must fail")
	}
}

// TestRecoverRefusesLegacyCheckpoint: a directory that still holds an older
// version's checkpoint file may have lost the segments it covered, so
// Recover must refuse it by name — with or without a snapshot to boot
// from — and apply nothing.
func TestRecoverRefusesLegacyCheckpoint(t *testing.T) {
	cfg := Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20}
	for _, tc := range []struct {
		name     string
		snapshot bool
	}{{"segments only", false}, {"with snapshot", true}} {
		dir := t.TempDir()
		recs := runLoggedCampaign(t, cfg, dir, 20)
		if tc.snapshot {
			writeStateAt(t, cfg, dir, recs, len(recs))
		}
		if err := os.WriteFile(filepath.Join(dir, "checkpoint"), []byte("DOCSCKP2"), 0o644); err != nil {
			t.Fatal(err)
		}
		s := newSystem(t, cfg)
		_, err := s.Recover(dir)
		if err == nil || !strings.Contains(err.Error(), `"checkpoint"`) {
			t.Fatalf("%s: err = %v, want a refusal naming the checkpoint file", tc.name, err)
		}
		if n := s.Stats().Answers; n != 0 {
			t.Fatalf("%s: refused boot still applied %d answers", tc.name, n)
		}
		s.Close()
	}
}

// The live-vs-recovered contract in its strongest form: a boot of the
// durable files is bit-identical to the LIVE system as it stood when the
// acknowledged prefix ended — not merely to a replay of that prefix. The
// two are the same only if serving derives nothing from state a recovery
// sees at another time; the ~1e-7 /result drift this suite was built to
// catch came from such a gap (worker seeds re-read from the evolving store
// on replay instead of restored from the log — see docs/persistence.md).

// storeCampaigns is two contested campaigns run one after the other over
// one file-backed store: the second one's workers are already profiled,
// so its first requests seed them FROM the store — the path whose
// time-of-read divergence this suite exists to catch.
func storeCampaigns(t *testing.T, sc script) {
	t.Helper()
	cfg := Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20, WALSegmentBytes: 1 << 10}
	sc.Seed = 99
	sc.Traffic = func(c *campaigns, r *mathx.Rand) {
		c.publish("camp1", 16, 0)
		visits(r, c.visit, "camp1", 7, 4, 0.2)
		c.publish("camp2", 12, 100)
		visits(r, c.visit, "camp2", 5, 4, 0.2)
	}
	scenario(cfg, true).run(t, sc)
}

// TestLiveVsRecoveredExact: every acknowledged boundary of storeCampaigns
// boots to the live fingerprint — clean, and with a torn prefix of the next
// operation's first frame, which boots to the boundary before it.
func TestLiveVsRecoveredExact(t *testing.T) {
	storeCampaigns(t, script{Every: true})
}

// TestLostStoreDeltaRepairedExact pins the closed lost-merge window: at
// every boundary where a profiling merge reached the store log, an image
// whose store lost that final record (its gauntlet answers are in the
// WAL) boots to the live state, store included — the replay repairs the
// merge — and a second boot of the repaired image lands on the same bits.
func TestLostStoreDeltaRepairedExact(t *testing.T) {
	storeCampaigns(t, script{Lost: true})
}
