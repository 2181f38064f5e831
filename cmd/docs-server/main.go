// Command docs-server runs the DOCS system as an HTTP service hosting many
// campaigns at once: requesters publish task sets with
// POST /c/{campaign}/publish, workers obtain assignments with
// GET /c/{campaign}/request and answer with POST /c/{campaign}/submit or
// batched with POST /c/{campaign}/submit-batch, and requesters read
// inferred truths from GET /c/{campaign}/results. Worker profiles are
// shared across campaigns through one store. The handlers live in
// docs/internal/httpapi (shared with the tests and the benchmark); see that
// package for the full API, docs/protocol.md for the batch wire format, and
// README.md for the durability contract.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"docs"
	"docs/internal/httpapi"
)

// Server timeouts, fixed rather than flags. readTimeout covers the whole
// request body, so it is sized for the largest: a 64 MiB publication at
// about 1 MiB/s.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	storePath := flag.String("store", "", "shared worker-statistics store: a log directory, created if missing (empty = <wal-dir>/store when -wal-dir is set, else memory-only)")
	walDir := flag.String("wal-dir", "", "registry root directory: each campaign logs under <dir>/campaigns/<name> and is replayed on boot (empty = memory-only)")
	walFsync := flag.Bool("wal-fsync", false, "fsync each campaign's WAL once per group-commit batch (survive power loss, not just process crashes)")
	golden := flag.Int("golden", 0, "golden task count per campaign (0 = default 20, negative = disabled)")
	hitSize := flag.Int("hit", 0, "tasks per assignment (0 = default 20)")
	perTask := flag.Int("redundancy", 0, "max answers per task (0 = unlimited)")
	syncRerun := flag.Bool("sync-rerun", false, "run the periodic batch re-inference on the submitting request instead of the background worker")
	leaseTTL := flag.Duration("lease-ttl", 0, "assignment lease TTL: tasks served to a worker are excluded from their re-requests and count against redundancy until answered or expired (0 = leases disabled)")
	maxBatch := flag.Int("max-batch", 0, "max answers one POST /submit-batch materializes; items past the clamp are rejected per-item (0 = default 256)")
	maxLive := flag.Int("max-live-campaigns", 0, "max campaigns resident in memory; past the cap the least-recently-used campaign hibernates and wakes on its next request; a campaign with a request in flight is skipped, so the resident set may exceed the cap by those campaigns until the next request trims it; also makes boot lazy — campaign logs replay on first touch (requires -wal-dir, 0 = unlimited)")
	hibernateAfter := flag.Duration("hibernate-after", 0, "hibernate campaigns idle this long (requires -wal-dir, 0 = never)")
	flag.Parse()

	srv, err := httpapi.New(docs.Config{
		StorePath:         *storePath,
		WALDir:            *walDir,
		WALSyncEveryBatch: *walFsync,
		GoldenCount:       *golden,
		HITSize:           *hitSize,
		AnswersPerTask:    *perTask,
		AsyncRerun:        !*syncRerun,
		LeaseTTL:          *leaseTTL,
		MaxLiveCampaigns:  *maxLive,
		HibernateAfter:    *hibernateAfter,
	}, httpapi.Options{MaxBatch: *maxBatch})
	if err != nil {
		log.Fatalf("docs-server: %v", err)
	}
	for _, info := range srv.Registry().Campaigns() {
		switch {
		case info.Archived:
			log.Printf("docs-server: campaign %q: archived", info.Name)
		case info.RecoveredRecords > 0:
			log.Printf("docs-server: campaign %q: recovered %d records (%d answers, published=%v)",
				info.Name, info.RecoveredRecords, info.Answers, info.Published)
		}
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		// No WriteTimeout: a cold wake plus GET /results can rightly run long.
	}

	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// close the registry — which flushes and fsyncs every campaign's WAL —
	// so a SIGTERM loses nothing even under the no-fsync default.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errC := make(chan error, 1)
	go func() { errC <- hs.ListenAndServe() }()
	log.Printf("docs-server listening on %s", *addr)
	select {
	case err := <-errC:
		log.Fatal(err)
	case sig := <-stop:
		log.Printf("docs-server: %v: draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("docs-server: shutdown: %v", err)
		}
		if err := srv.Close(); err != nil {
			log.Fatalf("docs-server: close: %v", err)
		}
		log.Printf("docs-server: WALs flushed, bye")
	}
}
