package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Bounded waits: a server that does not come up, answer or exit within
// these counts as a failure, never a hang.
const (
	healthTimeout = 120 * time.Second
	callTimeout   = 60 * time.Second
	exitTimeout   = 120 * time.Second
)

// serverPkg is the binary under test, by import path so the build works
// from any directory inside the module.
const serverPkg = "docs/cmd/docs-server"

// buildServer compiles docs-server into dir and returns the binary's path.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "docs-server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, serverPkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", serverPkg, err, out)
	}
	return bin, nil
}

// server is one docs-server child process.
type server struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:port
	exited  chan struct{} // closed once the child has been reaped
	waitErr error         // valid after exited closes
	log     bytes.Buffer  // the child's stderr, for failure reports
}

// startServer spawns docs-server on a free loopback port over walDir and
// waits until /healthz answers. Only -addr, -wal-dir, -wal-fsync and the
// workload's own flags are passed: everything else runs at its production
// default. The port is picked by binding :0 and closing it again, so a
// child that exits before it is healthy (someone else took the port in
// between) is retried on a fresh port.
func startServer(ctx context.Context, bin, walDir string, flags []string) (*server, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var s *server
		if s, err = spawn(ctx, bin, walDir, flags); err == nil {
			return s, nil
		}
		if !errors.Is(err, errExitedEarly) {
			break
		}
	}
	return nil, err
}

var errExitedEarly = errors.New("docs-server exited before /healthz")

// spawn is one attempt of startServer.
func spawn(ctx context.Context, bin, walDir string, flags []string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	args := append([]string{"-addr", addr, "-wal-dir", walDir, "-wal-fsync"}, flags...)
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stderr = &s.log
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()

	hc := &http.Client{Timeout: time.Second}
	deadline := time.NewTimer(healthTimeout)
	defer deadline.Stop()
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("%w: %v\n%s", errExitedEarly, s.waitErr, s.output())
		case <-deadline.C:
			return nil, fmt.Errorf("docs-server: no /healthz within %v\n%s", healthTimeout, s.output())
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill sends SIGKILL and reaps the child. Safe to call more than once and
// after the child has exited.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// output kills the child and returns what it wrote to standard error, for
// a failure report.
func (s *server) output() string {
	s.kill()
	return s.log.String()
}

// terminate sends SIGTERM and returns how long the graceful drain took.
// A child still running after exitTimeout is killed and reported.
func (s *server) terminate() (time.Duration, error) {
	start := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-s.exited:
	case <-time.After(exitTimeout):
		s.kill()
		return 0, fmt.Errorf("docs-server: still draining %v after SIGTERM", exitTimeout)
	}
	if s.waitErr != nil {
		return 0, fmt.Errorf("docs-server: exit after SIGTERM: %v\n%s", s.waitErr, s.output())
	}
	return time.Since(start), nil
}

// procSample is a reading of the child's kernel accounting.
type procSample struct {
	userS, sysS float64 // CPU seconds
	writeCalls  int64   // write-class syscalls (/proc/<pid>/io syscw)
	peakRSSMiB  float64 // VmHWM
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times: 100 on
// every Linux ABI Go supports.
const clockTick = 100

// sample reads /proc/<pid>/{stat,io,status}.
func (s *server) sample() (procSample, error) {
	var p procSample
	dir := filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return p, err
	}
	// The command name (field 2) may contain spaces; fields after its
	// closing parenthesis are well-formed. utime and stime are fields 14
	// and 15, i.e. 11 and 12 counting after the parenthesis.
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 13 {
		return p, fmt.Errorf("short /proc stat: %q", stat)
	}
	ut, err1 := strconv.ParseFloat(rest[11], 64)
	st, err2 := strconv.ParseFloat(rest[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return p, err
	}
	p.userS, p.sysS = ut/clockTick, st/clockTick

	writes, err := procField(filepath.Join(dir, "io"), "syscw:")
	if err != nil {
		return p, err
	}
	p.writeCalls = int64(writes)
	kb, err := procField(filepath.Join(dir, "status"), "VmHWM:")
	if err != nil {
		return p, err
	}
	p.peakRSSMiB = kb / 1024
	return p, nil
}

// procField returns the number after key in a "key value [unit]" file.
func procField(path, key string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == key {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s field", path, key)
}

// diskUsage is the bytes under a -wal-dir, split by artifact.
type diskUsage struct {
	total, segments, checkpoints, snapshots, store int64
}

// measureDisk walks walDir and classifies every regular file by name.
func measureDisk(walDir string) (diskUsage, error) {
	var d diskUsage
	err := filepath.WalkDir(walDir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n, name := info.Size(), e.Name()
		d.total += n
		switch {
		case strings.HasSuffix(name, ".wal"):
			d.segments += n
		case strings.HasPrefix(name, "checkpoint"):
			d.checkpoints += n
		case strings.HasPrefix(name, "snapshot"):
			d.snapshots += n
		case strings.HasPrefix(name, "store.json"):
			d.store += n
		}
		return nil
	})
	return d, err
}
