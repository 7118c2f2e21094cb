package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// history: 256 topics × 12 h at 1 s are loaded through Agent.IngestBatch
// under the production flush policy (evaluated on the simulated clock),
// so the segments and chunks are those a long-running agent
// accumulates. During the window two closed-loop HTTP clients issue
// seeded, never-repeating windows, all older than the ring caches, with
// no ingest.

const (
	histClients  = 2
	histRaw      = 300      // readings per raw range
	histAggSpan  = 3600     // seconds per node aggregate
	histDownSpan = 6 * 3600 // seconds per downsample
	histDownStep = 60       // downsample step in seconds
	ringReadings = 180      // collectagent -retention 180s at 1 Hz
	janitorEvery = 10       // tsdb default FlushEvery, seconds
	headLimit    = 65536    // tsdb default MaxHeadReadings
	headAge      = 60       // tsdb default MaxHeadAge, seconds
)

type histEnv struct {
	cfg      runConfig
	sp       *space
	s        *stack
	topics   int   // loaded topics: the first histNodes nodes
	k0, kEnd int64 // loaded seconds [k0, kEnd)
	flushes  int
}

func (e *histEnv) close() error { return e.s.close() }

func newHistEnv(cfg runConfig, sp *space, tr *tracer) (*histEnv, error) {
	s, err := openStack(cfg.root, stackOptions{serve: true, tr: tr})
	if err != nil {
		return nil, err
	}
	e := &histEnv{cfg: cfg, sp: sp, s: s, topics: cfg.sizes.histNodes * len(sensorNames), k0: baseSecond(cfg.seed)}
	e.kEnd = e.k0 + int64(cfg.sizes.histSeconds)
	// The janitor's decision, replayed on the simulated clock: every
	// 10 s, flush once the heads hold 65,536 readings or their oldest
	// arrival is 60 s old.
	var buf []sensor.Reading
	head, since := 0, int64(-1)
	for k := e.k0; k < e.kEnd; k += janitorEvery {
		n := int(min(janitorEvery, e.kEnd-k))
		for i := 0; i < e.topics; i++ {
			buf = sp.fill(buf[:0], i, k, n)
			s.agent.IngestBatch(sp.topics[i], buf)
		}
		if since < 0 {
			since = k
		}
		head += n * e.topics
		if now := k + int64(n); head >= headLimit || now-since >= headAge {
			if err := s.agent.DB.Flush(); err != nil {
				s.close()
				return nil, err
			}
			e.flushes++
			head, since = 0, -1
		}
	}
	return e, nil
}

// histKind is the shape of a history read.
type histKind int

const (
	histRawRange   histKind = iota // one topic, 300 readings
	histNodeAgg                    // one node's '#' aggregate over 1 h
	histDownsample                 // one topic over 6 h at 1 min, unaligned
)

// histQuery is one generated read.
type histQuery struct {
	kind   histKind
	i      int // topic (raw, downsample) or node (aggregate) index
	op     store.AggOp
	k0, k1 int64
}

func (q histQuery) path(sp *space) string {
	s0, s1 := strconv.FormatInt(q.k0*1e9, 10), strconv.FormatInt(q.k1*1e9, 10)
	switch q.kind {
	case histRawRange:
		return "/query?sensor=" + string(sp.topics[q.i]) + "&from=" + s0 + "&to=" + s1
	case histNodeAgg:
		return "/query?sensor=" + string(sp.nodes[q.i]) + "%23&op=" + q.op.String() + "&start=" + s0 + "&end=" + s1
	}
	return "/query?sensor=" + string(sp.topics[q.i]) + "&op=" + q.op.String() + "&start=" + s0 + "&end=" + s1 + "&step=1m"
}

// histGen draws never-repeating windows older than the ring caches.
type histGen struct {
	e    *histEnv
	mu   sync.Mutex
	seen map[histQuery]bool
}

func (g *histGen) next(rng *rand.Rand, j int) histQuery {
	e := g.e
	newest := e.kEnd - ringReadings - 1 // last second a window may touch
	ops := []store.AggOp{store.AggAvg, store.AggMax, store.AggMin, store.AggSum}
	for {
		var q histQuery
		switch j % 3 {
		case 0:
			q = histQuery{kind: histRawRange, i: rng.Intn(e.topics)}
			q.k0 = e.k0 + rng.Int63n(newest-histRaw+1-e.k0+1)
			q.k1 = q.k0 + histRaw - 1
		case 1:
			q = histQuery{kind: histNodeAgg, i: rng.Intn(e.cfg.sizes.histNodes), op: ops[rng.Intn(len(ops))]}
			q.k0 = e.k0 + rng.Int63n(newest-histAggSpan-e.k0+1)
			q.k1 = q.k0 + histAggSpan
		default:
			q = histQuery{kind: histDownsample, i: rng.Intn(e.topics), op: store.AggAvg}
			q.k0 = e.k0 + rng.Int63n(newest-histDownSpan-e.k0+1)
			if q.k0%histDownStep == 0 {
				q.k0++ // unaligned: never memoized
			}
			q.k1 = q.k0 + histDownSpan
		}
		// The result cache keys aggregates without their op: a window
		// differing only in op would be a repeat.
		key := q
		key.op = 0
		g.mu.Lock()
		dup := g.seen[key]
		g.seen[key] = true
		g.mu.Unlock()
		if !dup {
			return q
		}
	}
}

// check verifies an answer's shape (and raw values) in the window.
func (e *histEnv) check(q histQuery, body []byte) error {
	if q.kind == histRawRange {
		return checkRaw(body, e.sp, q.i, q.k0, q.k1, 0)
	}
	var a aggAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decoding %s answer: %w", q.op, err)
	}
	want := 1
	if q.kind == histNodeAgg {
		want = len(sensorNames)
	}
	if len(a.Sensors) != want {
		return fmt.Errorf("%d sensors, want %d", len(a.Sensors), want)
	}
	for _, s := range a.Sensors {
		if s.Count != q.k1-q.k0+1 {
			return fmt.Errorf("%s: %d readings over %d s", s.Sensor, s.Count, q.k1-q.k0+1)
		}
		if q.kind == histDownsample && len(s.Buckets) != histDownSpan/histDownStep+1 {
			return fmt.Errorf("%s: %d buckets", s.Sensor, len(s.Buckets))
		}
	}
	return nil
}

// checkNaive compares a sampled aggregate or downsample answer with the
// reference Range+reduce path over the same backend.
func (e *histEnv) checkNaive(q histQuery, body []byte) error {
	var a aggAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	db := e.s.agent.DB
	t0, t1 := q.k0*1e9, q.k1*1e9
	for _, s := range a.Sensors {
		tp := sensor.Topic(s.Sensor)
		if q.kind == histNodeAgg {
			ref := store.AggregateNaive(db, tp, t0, t1)
			if s.Count != ref.Count || s.Value == nil || !sameValue(*s.Value, ref, q.op) {
				return fmt.Errorf("%s %s over [%d, %d] differs from AggregateNaive", tp, q.op, t0, t1)
			}
			continue
		}
		ref := store.DownsampleNaive(db, tp, t0, t1, histDownStep*1e9, nil)
		if len(ref) != len(s.Buckets) {
			return fmt.Errorf("%s downsample: %d buckets, DownsampleNaive has %d", tp, len(s.Buckets), len(ref))
		}
		for j, b := range s.Buckets {
			if b.Start != ref[j].Start || b.Count != ref[j].Count || !sameValue(b.Value, ref[j].AggResult, q.op) {
				return fmt.Errorf("%s downsample bucket %d differs from DownsampleNaive", tp, b.Start)
			}
		}
	}
	return nil
}

// layout reports the set-up's segment count and mean readings per
// chunk: decoding every series once counts the chunks.
func (e *histEnv) layout() (segments int, perChunk float64) {
	db := e.s.agent.DB
	st := db.Stats()
	d0 := db.ChunksDecoded()
	for i := 0; i < e.topics; i++ {
		db.Range(e.sp.topics[i], 0, 1<<62, nil)
	}
	chunks := db.ChunksDecoded() - d0
	return st.Segments, ratio(float64(st.TotalReadings-st.HeadReadings), float64(chunks))
}

func runHistory(cfg runConfig) (*report, error) {
	sp := newSpace(cfg.seed, cfg.sizes.nodes)
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	e, setup, err := setupRepeated(cfg.setups, func() (*histEnv, error) { return newHistEnv(cfg, sp, tr) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	rep := newReport()
	st := e.s.agent.DB.Stats()
	fmt.Printf("layout: %d topics x %d s loaded, %d flushes, %d segments, %d readings\n",
		e.topics, e.kEnd-e.k0, e.flushes, st.Segments, st.TotalReadings)
	var segs int
	var perChunk float64
	if cfg.traced {
		segs, perChunk = e.layout()
		fmt.Printf("layout: %.1f readings per chunk\n", perChunk)
	}

	sm := startSampler(nil)
	gen := &histGen{e: e, seen: map[histQuery]bool{}}
	type sample struct {
		q    histQuery
		body []byte
	}
	var mu sync.Mutex
	var queries []queryRec
	var sampled []sample
	var qerrs []string
	var stop atomic.Bool
	var base atomic.Value
	base.Store(e.s.url)
	var wg sync.WaitGroup
	for c := 0; c < histClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed*31 + int64(c)))
			g := &getter{s: e.s, corrupt: cfg.corrupt}
			for j := c; !stop.Load(); j++ {
				q := gen.next(rng, j)
				start := time.Now()
				t := tr.begin()
				body, rtt, err := g.get(base.Load().(string), q.path(sp))
				tr.end(spanQuery, t)
				if err == nil {
					err = e.check(q, body)
				}
				mu.Lock()
				queries = append(queries, queryRec{start: start, rtt: rtt, bytes: len(body), ok: err == nil})
				if err != nil && len(qerrs) < 10 {
					qerrs = append(qerrs, err.Error())
				}
				if err == nil && q.kind != histRawRange && j%8 < 2 && len(sampled) < 64 {
					sampled = append(sampled, sample{q, append([]byte(nil), body...)})
				}
				mu.Unlock()
			}
		}(c)
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	s0 := takeSnap(e.s)
	end := s0
	var sMid snap
	if cfg.traced {
		time.Sleep(window / 2)
		sMid = takeSnap(e.s)
		end = sMid
		base.Store(e.s.tracedURL)
		tr.enable(true)
		time.Sleep(window / 2)
	} else {
		time.Sleep(window)
	}
	s1 := takeSnap(e.s)
	if !cfg.traced {
		end = s1
	}
	tr.enable(false)
	stop.Store(true)
	wg.Wait()
	heap := sm.finish()

	var attempted, failed int64
	for _, q := range queries {
		attempted++
		if !q.ok {
			failed++
		}
	}
	for _, m := range qerrs {
		fmt.Println("check:", m)
	}
	for _, s := range sampled {
		attempted++
		if err := e.checkNaive(s.q, s.body); err != nil {
			fmt.Println("check:", err)
			failed++
		}
	}
	if err := e.s.agent.DB.Flush(); err != nil {
		return nil, err
	}
	st = e.s.agent.DB.Stats()
	rep.attempted, rep.failed = attempted, failed

	secs := end.at.Sub(s0.at).Seconds()
	lat := &samples{}
	for _, q := range queries {
		if q.ok && !q.start.Before(s0.at) && q.start.Before(end.at) {
			lat.addDur(q.rtt)
		}
	}
	qps := float64(lat.n()) / secs
	bpr := ratio(float64(st.DiskBytes), float64(st.TotalReadings))
	rep.setE2E("setup_s", median(setup.v), setup.n())
	rep.setE2E("ops_per_s", qps, lat.n())
	rep.setE2E("latency_mean_ms", lat.mean(), lat.n())
	rep.setE2E("latency_p95_ms", lat.quantile(0.95), lat.n())
	rep.setE2E("heap_peak_mb", heap, 0)
	rep.setE2E("bytes_per_reading", bpr, st.TotalReadings)
	rep.addNamed("setup_s", "s", median(setup.v), setup.n())
	rep.addNamed("queries_per_s", "1/s", qps, lat.n())
	rep.addNamed("query_p50_ms", "ms", lat.quantile(0.5), lat.n())
	rep.addNamed("query_p99_ms", "ms", lat.quantile(0.99), lat.n())
	rep.addNamed("heap_peak_mb", "MB", heap, 0)
	rep.addNamed("bytes_per_reading", "B", bpr, st.TotalReadings)

	if cfg.traced {
		var n, bytesN, ok int
		for _, q := range queries {
			if !q.start.Before(sMid.at) && q.start.Before(s1.at) {
				n++
				bytesN += q.bytes
				if q.ok {
					ok++
				}
			}
		}
		tsecs := s1.at.Sub(sMid.at).Seconds()
		layerReport(rep, layerWindow{s0: sMid, s1: s1, spans: tr.byLayer(), ops: float64(n), opName: "query", queries: float64(n)})
		rep.setLayer("tsdb.segments_end", float64(segs), 0, "set-up layout")
		rep.setLayer("tsdb.readings_per_chunk_mean", perChunk, segs, "set-up layout: segment readings / chunks")
		rep.setLayer("rest.response_bytes_mean", ratio(float64(bytesN), float64(n)), n, "")
		rep.setLayer("trace.overhead_pct", overheadPct(qps, float64(ok)/tsecs), 0, "queries/s, untraced vs traced half")
		if err := writeSpans(tr, cfg.spanFile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
