package main

import (
	"sync/atomic"

	"repro/internal/durable"
)

// fsCounts is what a countingFS has seen so far.
type fsCounts struct {
	BytesWritten int64 // payload bytes through File.Write, zero-wipes included
	Syncs        int64 // File.Sync plus SyncDir calls
	Renames      int64
	Removes      int64
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{a.BytesWritten - b.BytesWritten, a.Syncs - b.Syncs, a.Renames - b.Renames, a.Removes - b.Removes}
}

// countingFS wraps a durable.FS and counts the device-level work the
// durable layer asks for. It is how the bench measures the disk side of
// a checkpoint from outside the program.
type countingFS struct {
	durable.FS
	bytes, syncs, renames, removes atomic.Int64
}

func newCountingFS(under durable.FS) *countingFS { return &countingFS{FS: under} }

func (c *countingFS) counts() fsCounts {
	return fsCounts{c.bytes.Load(), c.syncs.Load(), c.renames.Load(), c.removes.Load()}
}

func (c *countingFS) Create(name string) (durable.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) OpenWrite(name string) (durable.File, error) {
	f, err := c.FS.OpenWrite(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Rename(oldname, newname string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldname, newname)
}

func (c *countingFS) Remove(name string) error {
	c.removes.Add(1)
	return c.FS.Remove(name)
}

func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

type countingFile struct {
	durable.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}
