package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/transport"
)

// ingest: two publisher goroutines, each with its own spooled client,
// publish 10-reading batches per topic as fast as the spool admits
// (closed loop). Batches are in per-topic time order except a seeded 1%
// delivered one batch late. The only reads are the freshness probe.

const (
	ingestBatch      = 10
	ingestPublishers = 2
	lateSalt         = 0x1a7e
	rampUp           = time.Second // load before the window, not set-up
)

// publisher owns every ingestPublishers-th topic and one client.
type publisher struct {
	env   *ingestEnv
	c     *transport.Client
	idx   []int              // owned topic indexes
	held  [][]sensor.Reading // per owned topic: a batch being delivered late
	pub   []int64            // readings published per owned topic
	round int64              // next round
	buf   []sensor.Reading
	busy  time.Duration // time inside Publish while tracing
	errs  int64
	n     int64 // batches published
}

type ingestEnv struct {
	cfg  runConfig
	sp   *space
	s    *stack
	tr   *tracer
	pubs []*publisher
	pr   *probe
}

func (e *ingestEnv) close() error { return e.s.close() }

func newIngestEnv(cfg runConfig, sp *space, tr *tracer) (*ingestEnv, error) {
	s, err := openStack(cfg.root, stackOptions{serve: true, tr: tr})
	if err != nil {
		return nil, err
	}
	e := &ingestEnv{cfg: cfg, sp: sp, s: s, tr: tr, pr: newProbe(s, tr)}
	for p := 0; p < ingestPublishers; p++ {
		c, err := s.dial()
		if err != nil {
			s.close()
			return nil, err
		}
		pb := &publisher{env: e, c: c}
		for i := p; i < len(sp.topics); i += ingestPublishers {
			pb.idx = append(pb.idx, i)
		}
		pb.held = make([][]sensor.Reading, len(pb.idx))
		pb.pub = make([]int64, len(pb.idx))
		e.pubs = append(e.pubs, pb)
	}
	// Warm-up: one round of every topic, delivered and stored.
	var stop atomic.Bool
	for _, pb := range e.pubs {
		pb.runRound(&stop)
	}
	if err := e.drain(); err != nil {
		s.close()
		return nil, err
	}
	return e, nil
}

// publish sends one batch, timing it when tracing.
func (pb *publisher) publish(topic sensor.Topic, rs []sensor.Reading) {
	t := pb.env.tr.begin()
	err := pb.c.Publish(topic, rs)
	if !t.IsZero() {
		pb.env.tr.end(spanPublish, t)
		pb.busy += time.Since(t)
	}
	pb.n++
	if err != nil {
		pb.errs++
	}
}

// runRound publishes round pb.round of every owned topic; it stops
// early when stop is set and reports whether the round completed.
func (pb *publisher) runRound(stop *atomic.Bool) bool {
	e := pb.env
	k0 := baseSecond(e.cfg.seed) + pb.round*ingestBatch
	for j, i := range pb.idx {
		if stop.Load() {
			return false
		}
		pb.buf = e.sp.fill(pb.buf[:0], i, k0, ingestBatch)
		topic := e.sp.topics[i]
		if pb.held[j] == nil && hash3(e.cfg.seed^lateSalt, int64(i), pb.round)%100 == 0 {
			pb.held[j] = append([]sensor.Reading(nil), pb.buf...)
			continue
		}
		due := time.Now()
		pb.publish(topic, pb.buf)
		pb.pub[j] += int64(len(pb.buf))
		e.pr.offer(probeReq{topic: topic, ts: pb.buf[len(pb.buf)-1].Time, due: due})
		if late := pb.held[j]; late != nil {
			pb.publish(topic, late)
			pb.pub[j] += int64(len(late))
			pb.held[j] = nil
		}
	}
	pb.round++
	return true
}

// flushHeld delivers every batch still held back.
func (pb *publisher) flushHeld() {
	for j, late := range pb.held {
		if late != nil {
			pb.publish(pb.env.sp.topics[pb.idx[j]], late)
			pb.pub[j] += int64(len(late))
			pb.held[j] = nil
		}
	}
}

func (e *ingestEnv) published() (readings int64) {
	for _, pb := range e.pubs {
		for _, n := range pb.pub {
			readings += n
		}
	}
	return readings
}

// drain waits until every published batch is acknowledged and stored.
func (e *ingestEnv) drain() error {
	if err := e.s.waitAcked(60 * time.Second); err != nil {
		return err
	}
	return e.s.waitIngested(uint64(e.published()), 60*time.Second)
}

func runIngest(cfg runConfig) (*report, error) {
	sp := newSpace(cfg.seed, cfg.sizes.nodes)
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	e, setup, err := setupRepeated(cfg.setups, func() (*ingestEnv, error) { return newIngestEnv(cfg, sp, tr) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	rep := newReport()
	db := e.s.agent.DB

	var stop atomic.Bool
	var wg sync.WaitGroup
	probeStop := make(chan struct{})
	wg.Add(1)
	go e.pr.run(probeStop, &wg)
	var spool samples
	var extra func()
	if cfg.traced {
		extra = func() {
			if !tr.recording() {
				return
			}
			d := 0
			for _, pb := range e.pubs {
				d += pb.c.Stats().SpoolDepth
			}
			spool.add(float64(d))
		}
	}
	sm := startSampler(extra)
	var pubWG sync.WaitGroup

	// Window(s): traced runs measure an untraced half, then a traced half.
	for _, pb := range e.pubs {
		pubWG.Add(1)
		go func(pb *publisher) {
			defer pubWG.Done()
			for pb.runRound(&stop) {
			}
		}(pb)
	}
	// The window opens once the pipeline has filled: the spools and the
	// ingest queues start empty.
	time.Sleep(rampUp)
	window := time.Duration(cfg.seconds * float64(time.Second))
	s0 := takeSnap(e.s)
	tot0 := db.TotalReadings()
	var sMid snap
	var totMid int
	if cfg.traced {
		time.Sleep(window / 2)
		sMid = takeSnap(e.s)
		totMid = db.TotalReadings()
		tr.enable(true)
		time.Sleep(window / 2)
	} else {
		time.Sleep(window)
	}
	s1 := takeSnap(e.s)
	tot1 := db.TotalReadings()
	tr.enable(false)
	stop.Store(true)
	pubWG.Wait()
	heap := sm.finish()
	for _, pb := range e.pubs {
		pb.flushHeld()
	}
	var drainErr error
	if drainErr = e.drain(); drainErr != nil {
		fmt.Println("check: drain:", drainErr)
	}
	close(probeStop)
	wg.Wait()

	// Checks.
	var attempted, failed int64
	for _, pb := range e.pubs {
		attempted += pb.n
		failed += pb.errs
	}
	for _, pb := range e.pubs {
		for j, i := range pb.idx {
			if got := int64(db.Count(sp.topics[i])); got != pb.pub[j] {
				diff := got - pb.pub[j]
				if diff < 0 {
					diff = -diff
				}
				failed += (diff + ingestBatch - 1) / ingestBatch
				fmt.Printf("check: %s holds %d readings, %d acked\n", sp.topics[i], got, pb.pub[j])
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rounds := e.pubs[0].round
	for _, pb := range e.pubs {
		rounds = min(rounds, pb.round) // rounds every topic completed
	}
	for c := 0; c < 64 && rounds > 0; c++ {
		i := rng.Intn(len(sp.topics))
		span := rounds * ingestBatch
		a := rng.Int63n(span)
		n := 1 + rng.Int63n(min(span-a, 200))
		k0 := baseSecond(cfg.seed) + a
		attempted++
		if !rangeMatches(db.Range(sp.topics[i], k0*1e9, (k0+n-1)*1e9, nil), sp, i, k0, int(n)) {
			failed++
			fmt.Printf("check: Range(%s) differs from the generated readings\n", sp.topics[i])
		}
	}
	red := int64(s1.client.Redeliveries)
	failed += red
	failed += int64(e.pr.lost)
	if drainErr != nil {
		failed++
	}
	if err := db.Flush(); err != nil {
		return nil, err
	}
	st := db.Stats()
	rep.attempted, rep.failed = attempted, failed

	// End-to-end metrics (the untraced window, or half of a traced run).
	end := s1
	endTot := tot1
	if cfg.traced {
		end, endTot = sMid, totMid
	}
	secs := end.at.Sub(s0.at).Seconds()
	rate := float64(endTot-tot0) / secs
	fresh := e.pr.window(s0.at, end.at)
	rep.setE2E("setup_s", median(setup.v), setup.n())
	rep.setE2E("ops_per_s", rate, endTot-tot0)
	rep.setE2E("latency_mean_ms", fresh.mean(), fresh.n())
	rep.setE2E("latency_p95_ms", fresh.quantile(0.95), fresh.n())
	rep.setE2E("heap_peak_mb", heap, 0)
	bpr := ratio(float64(st.DiskBytes), float64(st.TotalReadings))
	rep.setE2E("bytes_per_reading", bpr, st.TotalReadings)
	rep.addNamed("setup_s", "s", median(setup.v), setup.n())
	rep.addNamed("ingest_readings_per_s", "readings/s", rate, endTot-tot0)
	rep.addNamed("freshness_p50_ms", "ms", fresh.quantile(0.5), fresh.n())
	rep.addNamed("freshness_p99_ms", "ms", fresh.quantile(0.99), fresh.n())
	rep.addNamed("heap_peak_mb", "MB", heap, 0)
	rep.addNamed("bytes_per_reading", "B", bpr, st.TotalReadings)
	poll := e.pr.pollPeriod()
	rep.attempted++
	if !e.pr.fineEnough(fresh) {
		rep.failed++
	}

	if cfg.traced {
		spans := tr.byLayer()
		readings := float64(tot1 - totMid)
		tsecs := s1.at.Sub(sMid.at).Seconds()
		layerReport(rep, layerWindow{s0: sMid, s1: s1, spans: spans, ops: readings, opName: "reading", readings: readings})
		var busy time.Duration
		for _, pb := range e.pubs {
			busy += pb.busy
		}
		rep.setLayer("transport.publish_blocked_share", busy.Seconds()/(tsecs*ingestPublishers), 0, "")
		rep.setLayer("transport.spool_depth_mean", spool.mean(), spool.n(), "sampled every 1ms, both clients")
		rep.setLayer("probe.poll_us_mean", poll, int(e.pr.polls), "")
		rep.setLayer("probe.cpu_share", e.pr.cpuShare(), 0, "probe thread CPU time per second of its life")
		rep.setLayer("trace.overhead_pct", overheadPct(rate, readings/tsecs), 0, "readings/s, untraced vs traced half")
		if err := writeSpans(tr, cfg.spanFile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// rangeMatches compares a Range answer with the generated readings of
// topic i for seconds [k0, k0+n).
func rangeMatches(got []sensor.Reading, sp *space, i int, k0 int64, n int) bool {
	if len(got) != n {
		return false
	}
	for j, r := range got {
		if r != sp.reading(i, k0+int64(j)) {
			return false
		}
	}
	return true
}

// writeSpans stores the traced run's spans for inspection.
func writeSpans(tr *tracer, path string) error {
	if path == "" {
		return nil
	}
	n, err := tr.write(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("trace: %d spans recorded, %d written to %s\n", len(tr.spans), n, path)
	return nil
}
