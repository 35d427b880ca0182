package durable

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the narrow filesystem interface the durable engine commits
// through. Everything the commit sequence does — create, write, fsync,
// atomic rename, directory fsync, unlink — goes through an FS, so tests
// can substitute MemFS and fail or halt the sequence at any single
// step to prove crash safety. Production code uses OS().
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenWrite opens an existing file for in-place writing without
	// truncation (the secure-wipe path overwrites before unlinking).
	OpenWrite(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove unlinks name.
	Remove(name string) error
	// List returns the names (not paths) of the plain files in dir,
	// sorted.
	List(dir string) ([]string, error)
	// Size returns name's length in bytes.
	Size(name string) (int64, error)
	// SyncDir fsyncs the directory itself, making completed creates,
	// renames and removes of its entries durable.
	SyncDir(dir string) error
}

// File is the open-file surface the engine needs: sequential reads or
// writes, positional reads (a replication stream serves an image range
// by range from one open file), plus fsync.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes the file's content to stable storage.
	Sync() error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real filesystem. It is the default when Options.FS is
// nil.
func OS() FS { return osFS{} }

// Database directories and files are owner-only: the engine exists to
// keep the disk from leaking, so it does not hand the images to every
// local user either.
func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o700) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) OpenWrite(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY, 0)
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
