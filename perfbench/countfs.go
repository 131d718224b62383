package main

import (
	"os"
	"sync/atomic"

	"xrank/internal/storage"
)

// countFS wraps a storage.FS and counts bytes written and read, fsyncs
// (of files and directories) and renames. Every call is passed to the
// wrapped FS unchanged, with its result returned as is, so durability
// behaves exactly as on the wrapped FS.
type countFS struct {
	fs storage.FS

	written atomic.Int64
	read    atomic.Int64
	fsyncs  atomic.Int64
	renames atomic.Int64
}

// fsCounts is one snapshot of a countFS's counters.
type fsCounts struct{ written, read, fsyncs, renames int64 }

func (c *countFS) snapshot() fsCounts {
	return fsCounts{c.written.Load(), c.read.Load(), c.fsyncs.Load(), c.renames.Load()}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{a.written - b.written, a.read - b.read, a.fsyncs - b.fsyncs, a.renames - b.renames}
}

func (c *countFS) Create(path string) (storage.File, error) {
	f, err := c.fs.Create(path)
	if err != nil {
		return f, err
	}
	return &countFile{File: f, c: c}, nil
}

func (c *countFS) Open(path string) (storage.File, error) {
	f, err := c.fs.Open(path)
	if err != nil {
		return f, err
	}
	return &countFile{File: f, c: c}, nil
}

func (c *countFS) ReadFile(path string) ([]byte, error) {
	b, err := c.fs.ReadFile(path)
	c.read.Add(int64(len(b)))
	return b, err
}

func (c *countFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.fs.Rename(oldpath, newpath)
}

func (c *countFS) Remove(path string) error              { return c.fs.Remove(path) }
func (c *countFS) MkdirAll(path string) error            { return c.fs.MkdirAll(path) }
func (c *countFS) Stat(path string) (os.FileInfo, error) { return c.fs.Stat(path) }
func (c *countFS) SyncDir(path string) error             { c.fsyncs.Add(1); return c.fs.SyncDir(path) }

// countFile counts the traffic of one open file.
type countFile struct {
	storage.File
	c *countFS
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.c.read.Add(int64(n))
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.c.written.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	f.c.fsyncs.Add(1)
	return f.File.Sync()
}
