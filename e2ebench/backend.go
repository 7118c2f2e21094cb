package main

import (
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// tsdbBackend is the interface set *tsdb.DB offers the Query Engine and
// the REST layer: the Backend contract plus every optional extension
// they probe for. Dropping one would silently change the program under
// test (store.Aggregate falls back to AggregateNaive without Aggregator).
type tsdbBackend interface {
	store.Backend
	store.Aggregator
	store.PrefixMatcher
	store.StatsProvider
	store.DecodeStatsProvider
}

// timedBackend decorates a tsdbBackend with one span per read call.
// Writes and statistics pass through untimed: the serving path only
// reads.
type timedBackend struct {
	inner tsdbBackend
	tr    *tracer
}

var _ tsdbBackend = (*timedBackend)(nil)

func (b *timedBackend) Insert(topic sensor.Topic, r sensor.Reading) { b.inner.Insert(topic, r) }

func (b *timedBackend) InsertBatch(topic sensor.Topic, rs []sensor.Reading) {
	b.inner.InsertBatch(topic, rs)
}

func (b *timedBackend) Range(topic sensor.Topic, t0, t1 int64, dst []sensor.Reading) []sensor.Reading {
	t := b.tr.begin()
	out := b.inner.Range(topic, t0, t1, dst)
	b.tr.end(spanRange, t)
	return out
}

func (b *timedBackend) Latest(topic sensor.Topic) (sensor.Reading, bool) {
	t := b.tr.begin()
	r, ok := b.inner.Latest(topic)
	b.tr.end(spanOtherRead, t)
	return r, ok
}

func (b *timedBackend) Count(topic sensor.Topic) int {
	t := b.tr.begin()
	n := b.inner.Count(topic)
	b.tr.end(spanOtherRead, t)
	return n
}

func (b *timedBackend) Topics() []sensor.Topic {
	t := b.tr.begin()
	ts := b.inner.Topics()
	b.tr.end(spanOtherRead, t)
	return ts
}

func (b *timedBackend) Prune(cutoff int64) int { return b.inner.Prune(cutoff) }

func (b *timedBackend) Aggregate(topic sensor.Topic, t0, t1 int64) store.AggResult {
	t := b.tr.begin()
	r := b.inner.Aggregate(topic, t0, t1)
	b.tr.end(spanAggregate, t)
	return r
}

func (b *timedBackend) Downsample(topic sensor.Topic, t0, t1, step int64, dst []store.Bucket) []store.Bucket {
	t := b.tr.begin()
	out := b.inner.Downsample(topic, t0, t1, step, dst)
	b.tr.end(spanDownsample, t)
	return out
}

func (b *timedBackend) TopicsPrefix(prefix sensor.Topic) []sensor.Topic {
	t := b.tr.begin()
	ts := b.inner.TopicsPrefix(prefix)
	b.tr.end(spanPrefix, t)
	return ts
}

func (b *timedBackend) Stats() store.BackendStats { return b.inner.Stats() }

func (b *timedBackend) ChunksDecoded() uint64 { return b.inner.ChunksDecoded() }
