package wal

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
)

// WriteFileAtomic replaces the file at path with data so that a crash at
// any point leaves either the previous complete file or the new one, never
// a mix: the bytes go to path+".tmp", are fsynced, the temp is renamed over
// path, and the directory is fsynced so the rename itself survives power
// loss. It is the one atomic replace in the tree (the campaign snapshot
// and the archive marker both come through it). A path
// has one writer at a time, so the temp name is fixed: what a crash strands
// there is overwritten by the next write, and a failed write removes it.
// Every error is returned, bare (an *os.PathError names the step and the
// file); after one from the directory fsync the new file is in place but
// not yet known durable.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so a file or directory created in it or
// renamed into it is durable: fsyncing the file alone does not persist its
// directory entry. It is the one directory fsync in the tree.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsync(d)
}

var (
	fsyncs atomic.Int64
	// failAt is the fsyncs count whose fsync FailFsyncAt armed to fail; 0
	// when none is armed.
	failAt atomic.Int64
)

// ErrInjectedFsync is what an fsync armed by FailFsyncAt returns.
var ErrInjectedFsync = errors.New("injected fsync failure")

// fsync is the one fsync in the package: every file and directory sync
// comes through it and is counted.
func fsync(f *os.File) error {
	if fsyncs.Add(1) == failAt.Load() {
		return ErrInjectedFsync
	}
	return f.Sync()
}

// FailFsyncAt makes the nth fsync from now (1 = the next) return
// ErrInjectedFsync without syncing; n <= 0 disarms it. It is a test hook:
// the count is process-wide, so a test arms it only while it alone syncs.
func FailFsyncAt(n int64) {
	if n <= 0 {
		failAt.Store(0)
		return
	}
	failAt.Store(fsyncs.Load() + n)
}

// Fsyncs returns how many fsyncs this process has issued through the
// package — log segments, atomically replaced files and directories alike.
// Tests read deltas of it to hold an operation to an exact I/O ledger.
func Fsyncs() int64 { return fsyncs.Load() }
