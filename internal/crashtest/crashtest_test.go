package crashtest

import (
	"os"
	"path/filepath"
	"testing"
)

// TestReportWritesUnderEnv: a sweep's mismatch lands as a file where
// LIVE_DIFF_REPORT points, so the artifact CI uploads on failure is not
// empty, and Report hands the same diff back for the failure message.
func TestReportWritesUnderEnv(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "live-diff")
	t.Setenv(ReportEnv, dir)
	if got := Report(t, "kill-007", "seg 3: got 0x1 want 0x2\n"); got != "seg 3: got 0x1 want 0x2\n" {
		t.Fatalf("Report returned %q", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, "TestReportWritesUnderEnv-kill-007.diff"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "seg 3: got 0x1 want 0x2\n" {
		t.Fatalf("report holds %q", data)
	}
}
