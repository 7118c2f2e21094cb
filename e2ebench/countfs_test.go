package main

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/tsdb"
)

// A DB written through the counting FS, killed without a flush and
// reopened through it answers exactly like one that never crashed.
func TestCountFSRecovers(t *testing.T) {
	dir := t.TempDir()
	fs := newCountFS(tsdb.OSFS)
	db, sp := testDB(t, dir, fs)
	want := map[string][]any{}
	for _, tp := range sp.topics {
		want[string(tp)] = []any{db.Range(tp, 0, 1<<62, nil), db.Count(tp), store.Aggregate(db, tp, 0, 1<<62)}
	}
	db.Abandon() // the third part lives only in the WAL

	s := fs.snap()
	if s.class[classWAL].write.calls == 0 || s.class[classWAL].write.bytes == 0 {
		t.Error("no WAL writes counted")
	}
	if s.class[classSegment].write.calls == 0 || s.class[classSegment].write.bytes == 0 {
		t.Error("no segment writes counted")
	}
	if s.fsyncs() == 0 || s.dirSync.calls == 0 {
		t.Error("no fsyncs counted")
	}

	fs2 := newCountFS(tsdb.OSFS)
	db2, err := tsdb.Open(dir, tsdb.Options{FlushEvery: -1, FS: fs2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, tp := range sp.topics {
		got := []any{db2.Range(tp, 0, 1<<62, nil), db2.Count(tp), store.Aggregate(db2, tp, 0, 1<<62)}
		if !reflect.DeepEqual(got, want[string(tp)]) {
			t.Fatalf("%s: recovered answers differ", tp)
		}
	}
	if r := fs2.snap(); r.class[classWAL].read.bytes == 0 || r.class[classSegment].read.calls == 0 {
		t.Errorf("recovery reads not counted: %+v", r.class)
	}
}

var errBoom = errors.New("boom")

// failFS fails every operation with errBoom; failFile fails every call.
type failFS struct{}

func (failFS) MkdirAll(string, os.FileMode) error                   { return errBoom }
func (failFS) OpenFile(string, int, os.FileMode) (tsdb.File, error) { return nil, errBoom }
func (failFS) Open(string) (tsdb.File, error)                       { return nil, errBoom }
func (failFS) Create(string) (tsdb.File, error)                     { return failFile{}, nil }
func (failFS) ReadDir(string) ([]os.DirEntry, error)                { return nil, errBoom }
func (failFS) ReadFile(string) ([]byte, error)                      { return nil, errBoom }
func (failFS) WriteFile(string, []byte, os.FileMode) error          { return errBoom }
func (failFS) Rename(string, string) error                          { return errBoom }
func (failFS) Remove(string) error                                  { return errBoom }
func (failFS) Stat(string) (os.FileInfo, error)                     { return nil, errBoom }
func (failFS) SyncDir(string) error                                 { return errBoom }

type failFile struct{}

func (failFile) Write([]byte) (int, error)         { return 0, errBoom }
func (failFile) ReadAt([]byte, int64) (int, error) { return 0, errBoom }
func (failFile) Close() error                      { return errBoom }
func (failFile) Sync() error                       { return errBoom }
func (failFile) Stat() (os.FileInfo, error)        { return nil, errBoom }

// Errors pass through the wrapper unchanged: same value, not wrapped.
func TestCountFSPassesErrors(t *testing.T) {
	fs := newCountFS(failFS{})
	_, e1 := fs.OpenFile("wal/1.wal", 0, 0)
	_, e2 := fs.Open("seg/1.seg")
	_, e3 := fs.ReadDir("x")
	_, e4 := fs.ReadFile("meta.json")
	_, e5 := fs.Stat("x")
	f, err := fs.Create("seg/2.seg")
	if err != nil {
		t.Fatal(err)
	}
	_, e6 := f.Write([]byte("x"))
	_, e7 := f.ReadAt(make([]byte, 1), 0)
	_, e8 := f.Stat()
	for i, e := range []error{
		fs.MkdirAll("x", 0), e1, e2, e3, e4, e5,
		fs.WriteFile("meta.json", nil, 0), fs.Rename("a", "b"), fs.Remove("a"), fs.SyncDir("seg"),
		e6, e7, f.Sync(), e8, f.Close(),
	} {
		if e != errBoom {
			t.Errorf("call %d returned %v, want the inner error unchanged", i, e)
		}
	}
	if s := fs.snap(); s.class[classSegment].write.calls != 1 || s.class[classSegment].sync.calls != 1 || s.dirSync.calls != 1 {
		t.Errorf("failed calls not counted: %+v", s)
	}
}
