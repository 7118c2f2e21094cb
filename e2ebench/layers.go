package main

import "time"

// layerUnits lists every per-layer metric of the traced run with its
// unit (see BENCHMARK.json). A metric that does not apply to a
// workload is reported as 0 with the reason.
var layerUnits = map[string]string{
	"transport.publish_us_p50":        "us",
	"transport.publish_us_p99":        "us",
	"transport.publish_blocked_share": "ratio",
	"transport.acked_per_s":           "1/s",
	"transport.spool_depth_mean":      "batches",
	"transport.redeliveries":          "count",
	"transport.broker_batches_per_s":  "1/s",
	"collect.drain_ms_mean":           "ms",
	"collect.batch_readings_mean":     "readings",
	"collect.dup_batches":             "count",
	"tsdb.readings_per_wal_write":     "readings",
	"tsdb.wal_write_ms_total":         "ms",
	"tsdb.wal_bytes_per_reading":      "B",
	"tsdb.wal_commit_ms_mean":         "ms",
	"tsdb.flushes":                    "count",
	"tsdb.flush_ms_mean":              "ms",
	"tsdb.segment_bytes_written":      "B",
	"tsdb.fsyncs":                     "count",
	"tsdb.segments_end":               "count",
	"tsdb.readings_per_chunk_mean":    "readings",
	"tsdb.range_us_p50":               "us",
	"tsdb.range_us_p99":               "us",
	"tsdb.aggregate_us_p50":           "us",
	"tsdb.aggregate_us_p99":           "us",
	"tsdb.downsample_us_p50":          "us",
	"tsdb.downsample_us_p99":          "us",
	"tsdb.backend_calls_per_query":    "calls",
	"tsdb.chunks_decoded_per_query":   "chunks",
	"tsdb.chunks_decoded_per_tick":    "chunks",
	"resultcache.hit_ratio":           "ratio",
	"resultcache.stale_per_s":         "1/s",
	"resultcache.entries_end":         "count",
	"rest.self_share":                 "ratio",
	"rest.response_bytes_mean":        "B",
	"core.tasks_per_tick":             "tasks",
	"core.queued_max":                 "tasks",
	"plugins.aggregator_ms_p50":       "ms",
	"plugins.perfmetrics_ms_p50":      "ms",
	"plugins.persyst_ms_p50":          "ms",
	"plugins.regressor_ms_p50":        "ms",
	"runtime.alloc_bytes_per_op":      "B",
	"runtime.cpu_us_per_op":           "us",
	"runtime.gc_cycles_per_s":         "1/s",
	"gen.late_ms_mean":                "ms",
	"gen.late_ms_p99":                 "ms",
	"probe.poll_us_mean":              "us",
	"probe.cpu_share":                 "ratio",
	"trace.overhead_pct":              "%",
}

// layerWindow is what the traced half of a run hands to layerReport.
type layerWindow struct {
	s0, s1   snap
	spans    [numLayers]samples
	ops      float64 // the workload's primary operations in the window
	opName   string  // "reading", "query" or "tick"
	readings float64 // readings stored in the window (write-side ratios)
	queries  float64 // HTTP queries completed in the window
	ticks    float64 // TickOnce rounds in the window
}

// layerReport derives the per-layer metrics every workload shares from
// the window's counters and spans.
func layerReport(r *report, w layerWindow) {
	secs := w.s1.at.Sub(w.s0.at).Seconds()
	sp := &w.spans

	// transport
	pub := &sp[spanPublish]
	if pub.n() > 0 {
		r.setLayer("transport.publish_us_p50", pub.quantile(0.5), pub.n(), "")
		r.setLayer("transport.publish_us_p99", pub.quantile(0.99), pub.n(), "")
	} else {
		r.setLayer("transport.publish_us_p50", 0, 0, "no publishes")
		r.setLayer("transport.publish_us_p99", 0, 0, "no publishes")
	}
	c0, c1 := w.s0.client, w.s1.client
	r.setLayer("transport.acked_per_s", float64(c1.Acked-c0.Acked)/secs, 0, "")
	r.setLayer("transport.redeliveries", float64(c1.Redeliveries-c0.Redeliveries), 0, "")
	r.setLayer("transport.broker_batches_per_s", float64(w.s1.brokerN-w.s0.brokerN)/secs, 0, "")

	// collect
	drain := regDelta(w.s0, w.s1, "dcdb_ingest_drain_seconds")
	r.setLayer("collect.drain_ms_mean", ratio(drain.sum*1e3, drain.count), int(drain.count), "")
	batch := regDelta(w.s0, w.s1, "dcdb_ingest_batch_readings")
	r.setLayer("collect.batch_readings_mean", ratio(batch.sum, batch.count), int(batch.count), "")
	r.setLayer("collect.dup_batches", regDelta(w.s0, w.s1, "dcdb_ingest_dup_batches_total").value, 0, "")

	// tsdb write side: the counting FS and the registry
	fs := w.s1.fs.sub(w.s0.fs)
	wal := fs.class[classWAL].write
	r.setLayer("tsdb.readings_per_wal_write", ratio(w.readings, float64(wal.calls)), int(wal.calls), "")
	r.setLayer("tsdb.wal_write_ms_total", float64(wal.nanos)/1e6, int(wal.calls), "")
	r.setLayer("tsdb.wal_bytes_per_reading", ratio(float64(wal.bytes), w.readings), 0, "")
	if commit := regDelta(w.s0, w.s1, "dcdb_tsdb_wal_commit_seconds"); commit.count > 0 {
		r.setLayer("tsdb.wal_commit_ms_mean", commit.sum*1e3/commit.count, int(commit.count), "")
	} else {
		// With WAL sync off a lone writer commits inline, a path that
		// does not observe dcdb_tsdb_wal_commit_seconds: time the
		// commit's write at the filesystem instead.
		r.setLayer("tsdb.wal_commit_ms_mean", ratio(float64(wal.nanos)/1e6, float64(wal.calls)), int(wal.calls),
			"inline commits are not in dcdb_tsdb_wal_commit_seconds: mean WAL write at the FS wrapper")
	}
	flush := regDelta(w.s0, w.s1, "dcdb_tsdb_flush_seconds")
	r.setLayer("tsdb.flushes", flush.count, 0, "")
	r.setLayer("tsdb.flush_ms_mean", ratio(flush.sum*1e3, flush.count), int(flush.count), "")
	r.setLayer("tsdb.segment_bytes_written", float64(fs.class[classSegment].write.bytes), 0, "")
	r.setLayer("tsdb.fsyncs", float64(fs.fsyncs()), 0, "")
	r.setLayer("tsdb.segments_end", w.s1.reg["dcdb_tsdb_segments"].value, 0, "")

	// tsdb read side: the timed backend decorator
	for _, q := range []struct {
		l    layer
		name string
	}{{spanRange, "range"}, {spanAggregate, "aggregate"}, {spanDownsample, "downsample"}} {
		s := &sp[q.l]
		note := ""
		if s.n() == 0 {
			note = "no " + q.name + " calls reached the backend"
		}
		r.setLayer("tsdb."+q.name+"_us_p50", s.quantile(0.5), s.n(), note)
		r.setLayer("tsdb."+q.name+"_us_p99", s.quantile(0.99), s.n(), note)
	}
	calls := 0
	for _, l := range []layer{spanRange, spanAggregate, spanDownsample, spanPrefix, spanOtherRead} {
		calls += sp[l].n()
	}
	decoded := float64(w.s1.decoded - w.s0.decoded)
	if w.queries > 0 {
		r.setLayer("tsdb.backend_calls_per_query", float64(calls)/w.queries, calls, "")
		r.setLayer("tsdb.chunks_decoded_per_query", decoded/w.queries, int(w.queries), "")
	} else {
		r.setLayer("tsdb.backend_calls_per_query", 0, 0, "no queries")
		r.setLayer("tsdb.chunks_decoded_per_query", 0, 0, "no queries")
	}
	if w.ticks > 0 {
		r.setLayer("tsdb.chunks_decoded_per_tick", decoded/w.ticks, int(w.ticks), "")
	} else {
		r.setLayer("tsdb.chunks_decoded_per_tick", 0, 0, "no ticks")
	}

	// result cache and REST
	rc0, rc1 := w.s0.rc, w.s1.rc
	hits, stale, miss := float64(rc1.Hits-rc0.Hits), float64(rc1.Stale-rc0.Stale), float64(rc1.Misses-rc0.Misses)
	r.setLayer("resultcache.hit_ratio", ratio(hits, hits+stale+miss), int(hits+stale+miss), "")
	r.setLayer("resultcache.stale_per_s", stale/secs, 0, "strict cache (TTL 0) never serves stale")
	r.setLayer("resultcache.entries_end", float64(rc1.Entries), 0, "")
	if q := &sp[spanQuery]; q.n() > 0 {
		var backend float64
		for _, l := range []layer{spanRange, spanAggregate, spanDownsample, spanPrefix, spanOtherRead} {
			backend += sp[l].sum()
		}
		r.setLayer("rest.self_share", 1-ratio(backend, q.sum()), q.n(),
			"backend calls cannot be tied to one request from outside: window totals")
	} else {
		r.setLayer("rest.self_share", 0, 0, "no HTTP queries")
	}

	// core
	if w.ticks > 0 {
		done := float64(w.s1.sched.Completed - w.s0.sched.Completed)
		r.setLayer("core.tasks_per_tick", done/w.ticks, int(w.ticks), "")
	} else {
		r.setLayer("core.tasks_per_tick", 0, 0, "no ticks")
	}

	// runtime
	rt0, rt1 := w.s0.rt, w.s1.rt
	r.setLayer("runtime.alloc_bytes_per_op", ratio(rt1.allocBytes-rt0.allocBytes, w.ops), int(w.ops), "per "+w.opName)
	r.setLayer("runtime.cpu_us_per_op", ratio(float64(rt1.cpu-rt0.cpu)/float64(time.Microsecond), w.ops), int(w.ops), "per "+w.opName)
	r.setLayer("runtime.gc_cycles_per_s", (rt1.gcCycles-rt0.gcCycles)/secs, 0, "")
}

// overheadPct is how much slower the traced half ran than the untraced
// half, in percent of the untraced rate (positive: tracing costs).
func overheadPct(untracedRate, tracedRate float64) float64 {
	return 100 * ratio(untracedRate-tracedRate, untracedRate)
}
