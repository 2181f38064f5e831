// Command docs-perf is the repository's one end-to-end benchmark: it
// builds docs-server, runs it as a subprocess with production defaults
// plus -wal-dir/-wal-fsync, drives one of four seeded, generated workloads
// at it over loopback HTTP with two closed-loop clients, checks the
// outputs, and prints every metric by name with its unit. With -trace 1 it
// additionally replays a prefix of the same workload in-process through
// successively thicker stacks (the per-layer ladder) and writes the spans
// to trace.json. See README.md for the metric glossary, the workloads and
// how the numbers interact; BENCHMARK.json at the repository root records
// the command and the regression bounds.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "docs-perf:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	repeat   int
	buildDir string
}

// run is main without the process exit, so the smoke test drives the same
// code path. It returns an error when a run could not complete or an
// output check failed.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("docs-perf", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: lifecycle, ingest-batch, assign-heavy, churn, or all")
	fs.Uint64Var(&o.seed, "seed", 20160412, "workload seed: the same seed generates the same requests")
	fs.IntVar(&o.seconds, "seconds", baseSeconds, "run length: each workload's frozen episode count is sized for 10 and scales linearly with this")
	fs.IntVar(&o.trace, "trace", 0, "1 = after the server run, replay the workload's first operations in-process through the per-layer ladder, write trace.json, and put the per-layer metrics in the result line")
	fs.IntVar(&o.repeat, "repeat", 1, "run each workload this many times and report per-metric medians")
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for the docs-server binary and the runs' temporary WAL directories (created; the per-run directories are removed on exit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.seconds < 1 || o.repeat < 1 || fs.NArg() > 0 {
		return fmt.Errorf("need -seconds >= 1, -repeat >= 1 and no positional arguments")
	}
	todo := specs
	if o.workload != "all" {
		sp, ok := specByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []spec{sp}
	}

	if err := os.MkdirAll(o.buildDir, 0o755); err != nil {
		return err
	}
	bin, err := buildServer(ctx, o.buildDir)
	if err != nil {
		return err
	}
	// Every run's WAL directories live under one temp root, removed on
	// every exit path; children are reaped by the run that started them.
	tmp, err := os.MkdirTemp(o.buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var tr *tracer
	if o.trace != 0 {
		tr = newTracer()
		// Spans stay in memory until the process is done measuring.
		defer func() {
			if err := tr.flush(filepath.Join(o.buildDir, "trace.json")); err != nil {
				fmt.Fprintln(os.Stderr, "docs-perf: trace.json:", err)
			}
		}()
	}
	failed := 0
	for _, sp := range todo {
		var runs []*report
		for i := 0; i < o.repeat; i++ {
			rep, err := runWorkload(ctx, bin, tmp, sp.scaled(o.seconds), o.seed, tr, stdout)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			runs = append(runs, rep)
		}
		rep := medianReport(runs)
		rep.print(stdout)
		if !rep.correct() {
			failed++
		}
		// The machine-readable result is always the last line printed
		// for a workload.
		fmt.Fprintln(stdout, rep.resultLine(tr != nil))
	}
	if failed > 0 {
		return fmt.Errorf("%d workload(s) failed their output checks", failed)
	}
	return nil
}

// runWorkload generates the workload for (sp, seed), drives it at a real
// docs-server subprocess and, when tr is non-nil, replays its prefix
// through the in-process ladder.
func runWorkload(ctx context.Context, bin, tmp string, sp spec, seed uint64, tr *tracer, stdout io.Writer) (*report, error) {
	w, err := generate(sp, seed)
	if err != nil {
		return nil, err
	}
	rep := &report{workload: sp.name, sha256: w.sha256}
	if err := runServer(ctx, bin, tmp, w, rep); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := runLadder(w, rep.value(submitMeanUs), tmp, tr, rep, stdout); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	return rep, nil
}
