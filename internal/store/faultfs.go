package store

import (
	"errors"
	"time"

	"rarpred/internal/faultsim"
)

// ErrNoSpace is the injected out-of-space failure. The store makes one
// attempt per operation, so it surfaces as a typed ErrDiskFault and a
// save error; a later save succeeds once the fault disarms.
var ErrNoSpace = errors.New("no space left on device (injected)")

// FaultFS wraps another FS and applies the faultsim disk-fault table to
// every write and sync: torn writes persist a prefix, bit flips mangle
// one bit, truncation keeps a quarter, ENOSPC fails the write, slow
// fsync stalls Sync. Reads pass through untouched — the point is to
// damage what lands on disk and prove the read path catches it.
type FaultFS struct {
	base  FS
	sleep func(time.Duration)
}

// NewFaultFS wraps base with the disk-fault injector. sleep is used for
// DiskSlowSync delays; nil means time.Sleep.
func NewFaultFS(base FS, sleep func(time.Duration)) *FaultFS {
	if sleep == nil {
		sleep = time.Sleep
	}
	return &FaultFS{base: base, sleep: sleep}
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string) error { return f.base.MkdirAll(dir) }

// ReadFile implements FS.
func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.base.ReadFile(name) }

// Rename implements FS. The fault table is consulted with the
// destination path, so a fault armed on a workload name catches the
// publish rename of that workload's artifact: a torn or truncating
// fault at rename time models the temp file's contents not having fully
// reached the platters despite the rename landing.
func (f *FaultFS) Rename(oldpath, newpath string) error { return f.base.Rename(oldpath, newpath) }

// Remove implements FS.
func (f *FaultFS) Remove(name string) error { return f.base.Remove(name) }

// Truncate implements FS.
func (f *FaultFS) Truncate(name string, size int64) error { return f.base.Truncate(name, size) }

// CreateTemp implements FS, wrapping the returned handle so writes to
// the scratch file are subject to the fault table. The store embeds the
// final artifact's name in the temp pattern, so a fault armed on a
// workload name matches the temp path carrying that artifact's bytes.
func (f *FaultFS) CreateTemp(dir, pattern string) (File, string, error) {
	h, path, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, "", err
	}
	return &faultFile{File: h, path: path, fs: f}, path, nil
}

// OpenAppend implements FS.
func (f *FaultFS) OpenAppend(name string) (File, error) {
	h, err := f.base.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: h, path: name, fs: f}, nil
}

// faultFile filters writes and syncs through the fault table.
type faultFile struct {
	File
	path string
	fs   *FaultFS
}

// Write applies any armed write-shaped fault: the damaged bytes go to
// the underlying file and success is reported — exactly the lie a
// crashing kernel tells — except ENOSPC, which fails honestly.
func (w *faultFile) Write(p []byte) (int, error) {
	fault, ok := faultsim.TakeDisk(w.path, false)
	if !ok {
		return w.File.Write(p)
	}
	switch fault.Kind {
	case faultsim.DiskTornWrite:
		if _, err := w.File.Write(p[:len(p)/2]); err != nil {
			return 0, err
		}
		return len(p), nil
	case faultsim.DiskBitFlip:
		damaged := append([]byte(nil), p...)
		damaged[len(damaged)/2] ^= 0x10
		if _, err := w.File.Write(damaged); err != nil {
			return 0, err
		}
		return len(p), nil
	case faultsim.DiskTruncate:
		if _, err := w.File.Write(p[:len(p)/4]); err != nil {
			return 0, err
		}
		return len(p), nil
	case faultsim.DiskENOSPC:
		return 0, ErrNoSpace
	}
	return w.File.Write(p)
}

// Sync applies DiskSlowSync's delay before the real sync.
func (w *faultFile) Sync() error {
	if fault, ok := faultsim.TakeDisk(w.path, true); ok && fault.Kind == faultsim.DiskSlowSync {
		w.fs.sleep(fault.Delay)
	}
	return w.File.Sync()
}
