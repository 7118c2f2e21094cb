package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// layer names the benchmark-side spans: one per public call the
// benchmark makes into a layer, plus the two wrapped interfaces.
type layer uint8

const (
	spanPublish    layer = iota // transport.Client.Publish
	spanQuery                   // full HTTP round trip to rest
	spanLatest                  // freshness probe: tsdb DB.Latest
	spanIngest                  // collect.Agent.IngestBatch
	spanTick                    // collect.Agent.TickOnce
	spanRange                   // store.Backend Range (wrapped backend)
	spanAggregate               // store.Aggregator Aggregate
	spanDownsample              // store.Aggregator Downsample
	spanPrefix                  // store.PrefixMatcher TopicsPrefix
	spanOtherRead               // remaining wrapped backend calls
	numLayers
)

var layerNames = [numLayers]string{
	"transport.publish", "rest.query", "tsdb.latest", "collect.ingest_batch",
	"core.tick", "tsdb.range", "tsdb.aggregate", "tsdb.downsample",
	"tsdb.topics_prefix", "tsdb.other_read",
}

// span is one recorded call: its layer, start offset from the tracer's
// origin and duration. The benchmark's calls do not nest, and the
// backend calls made on server goroutines cannot be tied to one request
// from outside, so spans carry no parent.
type span struct {
	start, dur int64
	layer      layer
}

// tracer keeps spans in memory while on; a nil tracer records nothing,
// so the untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// enable switches recording on or off; a nil tracer stays off.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// recording reports whether spans are being recorded.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// begin returns the start time of a span, or the zero time when the
// tracer is nil or switched off.
func (t *tracer) begin() time.Time {
	if t == nil || !t.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

// end records a span begun with begin.
func (t *tracer) end(l layer, start time.Time) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	t.mu.Lock()
	t.spans = append(t.spans, span{start: int64(start.Sub(t.origin)), dur: int64(d), layer: l})
	t.mu.Unlock()
}

// byLayer returns the span durations of each layer.
func (t *tracer) byLayer() [numLayers]samples {
	var out [numLayers]samples
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.layer].addUs(time.Duration(s.dur))
	}
	return out
}

// maxWrittenSpans caps the span file: the per-layer statistics use every
// span, the file is for inspection.
const maxWrittenSpans = 200_000

// write stores the spans as tab-separated lines (layer, start ns,
// duration ns) and returns the number written.
func (t *tracer) write(path string) (int, error) {
	if t == nil {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tstart_ns\tdur_ns")
	n := 0
	for _, s := range t.spans {
		if n == maxWrittenSpans {
			break
		}
		fmt.Fprintf(w, "%s\t%d\t%d\n", layerNames[s.layer], s.start, s.dur)
		n++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
