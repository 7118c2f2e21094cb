package main

import (
	"reflect"
	"testing"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/tsdb"
)

// optionalInterfaces are the store interfaces the Query Engine, REST and
// the metrics layer probe a backend for.
var optionalInterfaces = []reflect.Type{
	reflect.TypeOf((*store.Backend)(nil)).Elem(),
	reflect.TypeOf((*store.Aggregator)(nil)).Elem(),
	reflect.TypeOf((*store.PrefixMatcher)(nil)).Elem(),
	reflect.TypeOf((*store.StatsProvider)(nil)).Elem(),
	reflect.TypeOf((*store.DecodeStatsProvider)(nil)).Elem(),
}

func TestTimedBackendInterfaceSet(t *testing.T) {
	db := reflect.TypeOf((*tsdb.DB)(nil))
	dec := reflect.TypeOf((*timedBackend)(nil))
	for _, it := range optionalInterfaces {
		if db.Implements(it) != dec.Implements(it) {
			t.Errorf("%v: *tsdb.DB implements it: %v, the decorator: %v", it, db.Implements(it), dec.Implements(it))
		}
	}
}

// testDB opens a DB holding two flushed segments and head data for a
// handful of topics.
func testDB(t *testing.T, dir string, fs tsdb.FS) (*tsdb.DB, *space) {
	t.Helper()
	db, err := tsdb.Open(dir, tsdb.Options{FlushEvery: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	sp := newSpace(7, 2)
	k0 := baseSecond(7)
	for part := 0; part < 3; part++ {
		for i := range sp.topics {
			db.InsertBatch(sp.topics[i], sp.fill(nil, i, k0+int64(part)*100, 100))
		}
		if part < 2 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, sp
}

func TestTimedBackendAnswers(t *testing.T) {
	db, sp := testDB(t, t.TempDir(), nil)
	defer db.Close()
	tr := newTracer()
	tr.enable(true)
	dec := &timedBackend{inner: db, tr: tr}
	k0 := baseSecond(7) * 1e9
	for i, tp := range sp.topics {
		t0, t1 := k0+int64(i)*7e9, k0+250e9
		if got, want := dec.Range(tp, t0, t1, nil), db.Range(tp, t0, t1, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("Range(%s) differs", tp)
		}
		if got, want := store.Aggregate(dec, tp, t0, t1), store.Aggregate(db, tp, t0, t1); got != want {
			t.Fatalf("Aggregate(%s) = %+v, want %+v", tp, got, want)
		}
		got := store.Downsample(dec, tp, t0, t1, 13e9, nil)
		if want := store.Downsample(db, tp, t0, t1, 13e9, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("Downsample(%s) differs", tp)
		}
		gl, gok := dec.Latest(tp)
		wl, wok := db.Latest(tp)
		if gl != wl || gok != wok || dec.Count(tp) != db.Count(tp) {
			t.Fatalf("Latest/Count(%s) differ", tp)
		}
	}
	prefix := sp.nodes[1]
	if got, want := store.TopicsPrefix(dec, prefix), store.TopicsPrefix(db, prefix); !reflect.DeepEqual(got, want) || len(got) != len(sensorNames) {
		t.Fatalf("TopicsPrefix = %d topics, want %d", len(got), len(want))
	}
	if !reflect.DeepEqual(dec.Topics(), db.Topics()) || dec.Stats() != db.Stats() || dec.ChunksDecoded() != db.ChunksDecoded() {
		t.Fatal("Topics/Stats/ChunksDecoded differ")
	}
	spans := tr.byLayer()
	for _, l := range []layer{spanRange, spanAggregate, spanDownsample, spanPrefix, spanOtherRead} {
		if spans[l].n() == 0 {
			t.Errorf("no %s spans recorded", layerNames[l])
		}
	}
}

func TestTimedBackendOffRecordsNothing(t *testing.T) {
	db, sp := testDB(t, t.TempDir(), nil)
	defer db.Close()
	tr := newTracer()
	dec := &timedBackend{inner: db, tr: tr}
	dec.Range(sp.topics[0], 0, 1<<62, nil)
	dec.Aggregate(sensor.Topic(sp.topics[0]), 0, 1<<62)
	if len(tr.spans) != 0 {
		t.Fatalf("%d spans recorded while tracing was off", len(tr.spans))
	}
}
