package main

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/tsdb"
)

// fileClass separates the database's files for the counters.
type fileClass int

const (
	classWAL fileClass = iota
	classSegment
	classOther // meta file and anything else
	numClasses
)

// classify maps a path inside a tsdb directory to its class: the engine
// keeps its log under wal/ and its segments under seg/.
func classify(name string) fileClass {
	switch filepath.Base(filepath.Dir(name)) {
	case "wal":
		return classWAL
	case "seg":
		return classSegment
	}
	return classOther
}

// opCount is calls, bytes and nanoseconds of one operation kind.
type opCount struct{ calls, bytes, nanos atomic.Int64 }

func (c *opCount) add(n int, since time.Time) {
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	c.nanos.Add(int64(time.Since(since)))
}

// opSnap is a point-in-time copy of an opCount.
type opSnap struct{ calls, bytes, nanos int64 }

func (c *opCount) snap() opSnap {
	return opSnap{c.calls.Load(), c.bytes.Load(), c.nanos.Load()}
}

func (s opSnap) sub(o opSnap) opSnap {
	return opSnap{s.calls - o.calls, s.bytes - o.bytes, s.nanos - o.nanos}
}

// classCounts are the counters of one file class.
type classCounts struct{ write, sync, read opCount }

// countFS is a tsdb.FS that counts calls, bytes and time of writes,
// fsyncs and reads per file class, plus directory syncs. Every call is
// forwarded unchanged and every error is returned as the inner FS gave
// it.
type countFS struct {
	inner   tsdb.FS
	class   [numClasses]classCounts
	dirSync opCount
}

var _ tsdb.FS = (*countFS)(nil)

func newCountFS(inner tsdb.FS) *countFS { return &countFS{inner: inner} }

func (c *countFS) wrap(f tsdb.File, name string, err error) (tsdb.File, error) {
	if err != nil {
		return f, err
	}
	return &countFile{File: f, c: &c.class[classify(name)]}, nil
}

func (c *countFS) MkdirAll(path string, perm os.FileMode) error { return c.inner.MkdirAll(path, perm) }

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (tsdb.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	return c.wrap(f, name, err)
}

func (c *countFS) Open(name string) (tsdb.File, error) {
	f, err := c.inner.Open(name)
	return c.wrap(f, name, err)
}

func (c *countFS) Create(name string) (tsdb.File, error) {
	f, err := c.inner.Create(name)
	return c.wrap(f, name, err)
}

func (c *countFS) ReadDir(name string) ([]os.DirEntry, error) { return c.inner.ReadDir(name) }

func (c *countFS) ReadFile(name string) ([]byte, error) {
	t := time.Now()
	b, err := c.inner.ReadFile(name)
	c.class[classify(name)].read.add(len(b), t)
	return b, err
}

func (c *countFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	t := time.Now()
	err := c.inner.WriteFile(name, data, perm)
	c.class[classify(name)].write.add(len(data), t)
	return err
}

func (c *countFS) Rename(oldpath, newpath string) error { return c.inner.Rename(oldpath, newpath) }

func (c *countFS) Remove(name string) error { return c.inner.Remove(name) }

func (c *countFS) Stat(name string) (os.FileInfo, error) { return c.inner.Stat(name) }

func (c *countFS) SyncDir(name string) error {
	t := time.Now()
	err := c.inner.SyncDir(name)
	c.dirSync.add(0, t)
	return err
}

// countFile counts the writes, syncs and reads of one open file.
type countFile struct {
	tsdb.File
	c *classCounts
}

func (f *countFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.c.write.add(n, t)
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.c.read.add(n, t)
	return n, err
}

func (f *countFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.c.sync.add(0, t)
	return err
}

// fsSnap is a copy of every counter of a countFS.
type fsSnap struct {
	class   [numClasses]struct{ write, sync, read opSnap }
	dirSync opSnap
}

func (c *countFS) snap() fsSnap {
	var s fsSnap
	if c == nil {
		return s
	}
	for i := range c.class {
		s.class[i].write = c.class[i].write.snap()
		s.class[i].sync = c.class[i].sync.snap()
		s.class[i].read = c.class[i].read.snap()
	}
	s.dirSync = c.dirSync.snap()
	return s
}

func (s fsSnap) sub(o fsSnap) fsSnap {
	var d fsSnap
	for i := range s.class {
		d.class[i].write = s.class[i].write.sub(o.class[i].write)
		d.class[i].sync = s.class[i].sync.sub(o.class[i].sync)
		d.class[i].read = s.class[i].read.sub(o.class[i].read)
	}
	d.dirSync = s.dirSync.sub(o.dirSync)
	return d
}

// fsyncs counts file and directory syncs of every class.
func (s fsSnap) fsyncs() int64 {
	n := s.dirSync.calls
	for i := range s.class {
		n += s.class[i].sync.calls
	}
	return n
}
