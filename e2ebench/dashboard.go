package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dcdb/wintermute/internal/rest"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/transport"
)

// dashboard: 15 min of history per topic loaded through the ingest path
// at set-up; during the window an open-loop live stream publishes one
// reading per topic per wall-clock second from one spooled client, and
// one closed-loop HTTP client cycles through 16 fixed panels whose
// step-aligned windows slide with wall time.

const (
	dashStep    = 10 // seconds: panel window alignment and rack step
	rackSpan    = 600
	nodeSpan    = 60
	rawSpan     = 60
	preloadSpan = 60 // readings per preload batch
	dashLag     = 2  // seconds a panel window trails wall time

)

type panelKind int

const (
	panelRack panelKind = iota // per-rack '#' downsample, 10 s step
	panelNode                  // per-node '#' aggregate
	panelRaw                   // single-sensor raw from/to range
)

type panel struct {
	kind   panelKind
	spec   string      // sensor parameter
	op     store.AggOp // aggregate panels
	topics []int       // topic indexes the panel covers, sorted like the answer
	span   int64       // window length in seconds
}

// window returns the panel's window [k0, k1] in seconds at wall second
// now: step-aligned, ending dashLag seconds back, so the newest second
// has normally landed before a window reaches it and every later write
// lies beyond the window (the result cache's frontier shortcut).
func (p *panel) window(now int64) (int64, int64) {
	k1 := (now - dashLag) / dashStep * dashStep
	return k1 - p.span, k1
}

func (p *panel) path(k0, k1 int64) string {
	s0, s1 := strconv.FormatInt(k0*1e9, 10), strconv.FormatInt(k1*1e9, 10)
	spec := strings.ReplaceAll(p.spec, "#", "%23")
	switch p.kind {
	case panelRack:
		return "/query?sensor=" + spec + "&op=" + p.op.String() + "&start=" + s0 + "&end=" + s1 + "&step=10s"
	case panelNode:
		return "/query?sensor=" + spec + "&op=" + p.op.String() + "&start=" + s0 + "&end=" + s1
	}
	return "/query?sensor=" + spec + "&from=" + s0 + "&to=" + s1
}

// dashPanels builds the 16 fixed panels: 4 racks, 8 seeded nodes, 4
// seeded sensors.
func dashPanels(sp *space, seed int64) []*panel {
	rng := rand.New(rand.NewSource(seed ^ 0xda5b))
	var ps []*panel
	racks := map[string][]int{}
	var rackOrder []string
	for i, tp := range sp.topics {
		r := "/" + tp.Segments()[0] + "/#"
		if _, ok := racks[r]; !ok {
			rackOrder = append(rackOrder, r)
		}
		racks[r] = append(racks[r], i)
	}
	for j, r := range rackOrder {
		op := store.AggAvg
		if j%2 == 1 {
			op = store.AggMax
		}
		ps = append(ps, &panel{kind: panelRack, spec: r, op: op, topics: sortedTopics(sp, racks[r]), span: rackSpan})
	}
	nodes := rng.Perm(len(sp.nodes))
	for j := 0; j < 8; j++ {
		n := nodes[j%len(nodes)]
		op := store.AggAvg
		if j%2 == 1 {
			op = store.AggMax
		}
		idx := make([]int, len(sensorNames))
		for s := range idx {
			idx[s] = n*len(sensorNames) + s
		}
		ps = append(ps, &panel{kind: panelNode, spec: string(sp.nodes[n]) + "#", op: op, topics: sortedTopics(sp, idx), span: nodeSpan})
	}
	for j := 0; j < 4; j++ {
		i := rng.Intn(len(sp.topics))
		ps = append(ps, &panel{kind: panelRaw, spec: string(sp.topics[i]), topics: []int{i}, span: rawSpan})
	}
	return ps
}

// sortedTopics orders topic indexes like a '#' expansion: by topic.
func sortedTopics(sp *space, idx []int) []int {
	out := append([]int(nil), idx...)
	for a := 1; a < len(out); a++ {
		for b := a; b > 0 && sp.topics[out[b]] < sp.topics[out[b-1]]; b-- {
			out[b], out[b-1] = out[b-1], out[b]
		}
	}
	return out
}

// genRec is one open-loop send: when it was due and how late it started.
type genRec struct {
	due  time.Time
	late time.Duration
}

// queryRec is one closed-loop HTTP query.
type queryRec struct {
	start time.Time
	rtt   time.Duration
	bytes int
	ok    bool
}

type dashEnv struct {
	cfg    runConfig
	sp     *space
	s      *stack
	tr     *tracer
	c      *transport.Client
	pr     *probe
	panels []*panel
	t0     int64 // first live second; history covers [t0-dashHistoryS, t0)

	stop    atomic.Bool
	wg      sync.WaitGroup
	prStop  chan struct{}
	lastDue atomic.Int64 // unix ns of the newest send started
	sent    atomic.Int64 // readings published by the live stream
	pos     atomic.Int64 // sends completed: second*nodes + node + 1

	mu      sync.Mutex
	gen     []genRec
	pubErrs int64
}

func (e *dashEnv) close() error {
	e.stopStream()
	return e.s.close()
}

// stopStream stops the live stream and the probe (idempotent).
func (e *dashEnv) stopStream() {
	if !e.stop.Swap(true) {
		close(e.prStop)
	}
	e.wg.Wait()
}

func newDashEnv(cfg runConfig, sp *space, tr *tracer) (*dashEnv, error) {
	s, err := openStack(cfg.root, stackOptions{serve: true, tr: tr})
	if err != nil {
		return nil, err
	}
	e := &dashEnv{cfg: cfg, sp: sp, s: s, tr: tr, pr: newProbe(s, tr), prStop: make(chan struct{}),
		panels: dashPanels(sp, cfg.seed)}
	if e.c, err = s.dial(); err != nil {
		s.close()
		return nil, err
	}
	// History through the ingest path: one minute batch per topic at a
	// time, up to the second before the live stream starts. After each
	// minute the heads are flushed, as the janitor does once their
	// oldest reading is 60 s old: a long-running agent keeps all but the
	// last minute in segments.
	e.t0 = time.Now().Unix()
	var buf []sensor.Reading
	var readings int64
	for k := e.t0 - int64(cfg.sizes.dashHistoryS); k < e.t0; k += preloadSpan {
		n := int(min(preloadSpan, e.t0-k))
		for i, tp := range sp.topics {
			buf = sp.fill(buf[:0], i, k, n)
			if err := e.c.Publish(tp, buf); err != nil {
				s.close()
				return nil, fmt.Errorf("preloading history: %w", err)
			}
			readings += int64(n)
		}
		err := s.waitAcked(60 * time.Second)
		if err == nil {
			err = s.waitIngested(uint64(readings), 60*time.Second)
		}
		if err == nil {
			err = s.agent.DB.Flush()
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("preloading history: %w", err)
		}
	}
	// Warm-up: the live stream catches up with wall time, then every
	// panel is fetched once.
	e.wg.Add(2)
	go e.stream()
	go e.pr.run(e.prStop, &e.wg)
	for deadline := time.Now().Add(time.Minute); time.Since(time.Unix(0, e.lastDue.Load())) > 20*time.Millisecond; {
		if time.Now().After(deadline) {
			e.close()
			return nil, fmt.Errorf("the live stream did not catch up with wall time")
		}
		time.Sleep(time.Millisecond)
	}
	g := &getter{s: s}
	for _, p := range e.panels {
		if _, _, err := g.get(s.url, p.path(p.window(time.Now().Unix()))); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
	}
	return e, nil
}

// stream is the open-loop live load: second k of node n is due at
// k + n/nodes seconds of wall time (the staggered phases of one 1 Hz
// pusher per node). Each send is timed from its due time.
func (e *dashEnv) stream() {
	defer e.wg.Done()
	var buf [1]sensor.Reading
	nodes := len(e.sp.nodes)
	per := len(sensorNames)
	rng := rand.New(rand.NewSource(e.cfg.seed ^ 0x5eed))
	for k := e.t0; ; k++ {
		for n := 0; n < nodes; n++ {
			due := time.Unix(k, int64(n)*int64(time.Second)/int64(nodes))
			sleepUntil(due)
			if e.stop.Load() {
				return
			}
			start := time.Now()
			e.lastDue.Store(due.UnixNano())
			var errs int64
			for s := 0; s < per; s++ {
				i := n*per + s
				buf[0] = e.sp.reading(i, k)
				t := e.tr.begin()
				if err := e.c.Publish(e.sp.topics[i], buf[:]); err != nil {
					errs++
				}
				e.tr.end(spanPublish, t)
			}
			e.sent.Add(int64(per))
			e.pos.Store(k*int64(nodes) + int64(n) + 1)
			i := n*per + rng.Intn(per)
			e.pr.offer(probeReq{topic: e.sp.topics[i], ts: k * 1e9, due: due})
			e.mu.Lock()
			e.gen = append(e.gen, genRec{due: due, late: start.Sub(due)})
			e.pubErrs += errs
			e.mu.Unlock()
		}
	}
}

// checkPanel verifies one in-window answer. The window trails wall time
// by dashLag, so its seconds were due at least a second ago; only the
// newest may still be arriving after a stall.
func (e *dashEnv) checkPanel(p *panel, k0, k1 int64, body []byte) error {
	switch p.kind {
	case panelRaw:
		return checkRaw(body, e.sp, p.topics[0], k0, k1, 1)
	case panelNode:
		var a aggAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("decoding %s: %w", p.spec, err)
		}
		if len(a.Sensors) != len(p.topics) {
			return fmt.Errorf("%s: %d sensors, want %d", p.spec, len(a.Sensors), len(p.topics))
		}
		var total int64
		for j, s := range a.Sensors {
			i := p.topics[j]
			n := k1 - k0 + 1
			if s.Sensor != string(e.sp.topics[i]) || s.Count < n-1 || s.Count > n || s.Value == nil {
				return fmt.Errorf("%s: sensor %d is %s with %d readings", p.spec, j, s.Sensor, s.Count)
			}
			if !sameValue(*s.Value, reduce(e.sp, i, k0, k0+s.Count-1), p.op) {
				return fmt.Errorf("%s: %s %s = %v differs from the generated readings", p.spec, s.Sensor, p.op, *s.Value)
			}
			total += s.Count
		}
		if a.Combined.Count != total {
			return fmt.Errorf("%s: combined count %d, sensors sum to %d", p.spec, a.Combined.Count, total)
		}
		return nil
	}
	// Rack panels are megabytes of JSON: check their shape by scanning
	// (sensor and bucket counts); the full values are checked after the
	// window.
	head := fmt.Sprintf(`{"op":%q,"start":%d,"end":%d,"step":"10s","sensors":[`, p.op.String(), k0*1e9, k1*1e9)
	if !bytes.HasPrefix(body, []byte(head)) || !bytes.Contains(body, []byte(`],"combined":{`)) {
		return fmt.Errorf("%s: malformed answer %.120s", p.spec, body)
	}
	n := len(p.topics)
	if got := bytes.Count(body, []byte(`{"sensor":`)) - 1; got != n { // the combined slot is one more
		return fmt.Errorf("%s: %d sensors, want %d", p.spec, got, n)
	}
	buckets := (k1 - k0) / dashStep
	if got := int64(bytes.Count(body, []byte(`"start":`))) - 1; got < buckets*int64(n) || got > (buckets+1)*int64(n) {
		return fmt.Errorf("%s: %d buckets for %d sensors", p.spec, got, n)
	}
	return nil
}

// checkRackFull decodes a rack answer and checks every bucket against
// the generated readings (after the window, ingest paused).
func (e *dashEnv) checkRackFull(p *panel, k0, k1 int64, body []byte) error {
	var a aggAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decoding %s: %w", p.spec, err)
	}
	if len(a.Sensors) != len(p.topics) {
		return fmt.Errorf("%s: %d sensors, want %d", p.spec, len(a.Sensors), len(p.topics))
	}
	nodes := int64(len(e.sp.nodes))
	pos := e.pos.Load()
	for j, s := range a.Sensors {
		i := p.topics[j]
		// The stream stopped after sending node pos%nodes-1 of second
		// pos/nodes: nodes below that have the second, the rest do not.
		last := pos/nodes - 1
		if int64(i/len(sensorNames)) < pos%nodes {
			last++
		}
		if want := (min(k1, last)-k0)/dashStep + 1; int64(len(s.Buckets)) != want {
			return fmt.Errorf("%s: %s has %d buckets, want %d", p.spec, s.Sensor, len(s.Buckets), want)
		}
		for _, b := range s.Buckets {
			bk0 := b.Start / 1e9
			bk1 := min(bk0+dashStep-1, k1, last)
			if b.Count != bk1-bk0+1 || !sameValue(b.Value, reduce(e.sp, i, bk0, bk1), p.op) {
				return fmt.Errorf("%s: %s bucket %d (%d readings) differs from the generated readings", p.spec, s.Sensor, b.Start, b.Count)
			}
		}
	}
	return nil
}

func runDashboard(cfg runConfig) (*report, error) {
	sp := newSpace(cfg.seed, cfg.sizes.nodes)
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	e, setup, err := setupRepeated(cfg.setups, func() (*dashEnv, error) { return newDashEnv(cfg, sp, tr) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	rep := newReport()

	var spool samples
	var extra func()
	if cfg.traced {
		extra = func() {
			if tr.recording() {
				spool.add(float64(e.c.Stats().SpoolDepth))
			}
		}
	}
	sm := startSampler(extra)

	// The closed-loop reader: one client cycling through the panels.
	var qmu sync.Mutex
	var queries []queryRec
	var qerrs []string
	var qstop atomic.Bool
	var base atomic.Value
	base.Store(e.s.url)
	g := &getter{s: e.s, corrupt: cfg.corrupt}
	last := make([][2]int64, len(e.panels)) // newest window per panel
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for j := 0; !qstop.Load(); j = (j + 1) % len(e.panels) {
			p := e.panels[j]
			k0, k1 := p.window(time.Now().Unix())
			last[j] = [2]int64{k0, k1}
			start := time.Now()
			t := tr.begin()
			body, rtt, err := g.get(base.Load().(string), p.path(k0, k1))
			tr.end(spanQuery, t)
			if err == nil {
				err = e.checkPanel(p, k0, k1, body)
			}
			qmu.Lock()
			queries = append(queries, queryRec{start: start, rtt: rtt, bytes: len(body), ok: err == nil})
			if err != nil && len(qerrs) < 10 {
				qerrs = append(qerrs, err.Error())
			}
			qmu.Unlock()
		}
	}()

	window := time.Duration(cfg.seconds * float64(time.Second))
	s0 := takeSnap(e.s)
	sent0 := e.sent.Load()
	end, sentEnd := s0, sent0
	var sMid snap
	if cfg.traced {
		time.Sleep(window / 2)
		sMid = takeSnap(e.s)
		end, sentEnd = sMid, e.sent.Load()
		base.Store(e.s.tracedURL)
		tr.enable(true)
		time.Sleep(window / 2)
	} else {
		time.Sleep(window)
	}
	s1 := takeSnap(e.s)
	if !cfg.traced {
		end, sentEnd = s1, e.sent.Load()
	}
	tr.enable(false)
	qstop.Store(true)
	qwg.Wait()
	heap := sm.finish()
	e.stopStream()

	// Checks: ingest paused, every published reading stored, panels
	// served through the result cache byte-identical to a handler
	// without one, rack answers right to the last bucket.
	var attempted, failed int64
	qmu.Lock()
	for _, q := range queries {
		attempted++
		if !q.ok {
			failed++
		}
	}
	for _, m := range qerrs {
		fmt.Println("check:", m)
	}
	qmu.Unlock()
	e.mu.Lock()
	attempted += int64(len(e.gen))
	failed += e.pubErrs
	e.mu.Unlock()
	if err := e.s.waitAcked(60 * time.Second); err != nil {
		fmt.Println("check:", err)
		failed++
	}
	total := int64(e.cfg.sizes.dashHistoryS)*int64(len(sp.topics)) + e.sent.Load()
	if err := e.s.waitIngested(uint64(total), 60*time.Second); err != nil {
		fmt.Println("check:", err)
		failed++
	}
	plain := rest.NewHandler(e.s.agent.Manager, e.s.agent.QE)
	cg := &getter{s: e.s, corrupt: cfg.corrupt}
	for j, p := range e.panels {
		k0, k1 := last[j][0], last[j][1]
		if k1 == 0 {
			continue
		}
		attempted++
		path := p.path(k0, k1)
		body, _, err := cg.get(e.s.url, path)
		if err == nil {
			rec := httptest.NewRecorder()
			plain.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if !bytes.Equal(body, rec.Body.Bytes()) {
				err = fmt.Errorf("%s: cached answer differs from the uncached handler", p.spec)
			} else if p.kind == panelRack {
				err = e.checkRackFull(p, k0, k1, body)
			}
		}
		if err != nil {
			fmt.Println("check:", err)
			failed++
		}
	}
	failed += int64(e.pr.lost) + int64(s1.client.Redeliveries)
	if err := e.s.agent.DB.Flush(); err != nil {
		return nil, err
	}
	st := e.s.agent.DB.Stats()
	rep.attempted, rep.failed = attempted, failed

	// End-to-end metrics over the untraced window.
	secs := end.at.Sub(s0.at).Seconds()
	lat := &samples{}
	var okN int
	for _, q := range queries {
		if !q.start.Before(s0.at) && q.start.Before(end.at) && q.ok {
			lat.addDur(q.rtt)
			okN++
		}
	}
	fresh := e.pr.window(s0.at, end.at)
	qps := float64(okN) / secs
	bpr := ratio(float64(st.DiskBytes), float64(st.TotalReadings))
	rep.setE2E("setup_s", median(setup.v), setup.n())
	rep.setE2E("ops_per_s", qps, okN)
	rep.setE2E("latency_mean_ms", lat.mean(), lat.n())
	rep.setE2E("latency_p95_ms", lat.quantile(0.95), lat.n())
	rep.setE2E("heap_peak_mb", heap, 0)
	rep.setE2E("bytes_per_reading", bpr, st.TotalReadings)
	rep.addNamed("setup_s", "s", median(setup.v), setup.n())
	rep.addNamed("queries_per_s", "1/s", qps, okN)
	rep.addNamed("query_p50_ms", "ms", lat.quantile(0.5), lat.n())
	rep.addNamed("query_p99_ms", "ms", lat.quantile(0.99), lat.n())
	rep.addNamed("freshness_p50_ms", "ms", fresh.quantile(0.5), fresh.n())
	rep.addNamed("freshness_p99_ms", "ms", fresh.quantile(0.99), fresh.n())
	rep.addNamed("ingest_readings_per_s", "readings/s", float64(sentEnd-sent0)/secs, int(sentEnd-sent0))
	rep.addNamed("heap_peak_mb", "MB", heap, 0)
	rep.addNamed("bytes_per_reading", "B", bpr, st.TotalReadings)
	late := e.lateness(s0.at, end.at)
	fmt.Printf("generator: %d sends, late mean %.3f ms, p99 %.3f ms, max %.3f ms\n",
		late.n(), late.mean(), late.quantile(0.99), late.max())
	poll := e.pr.pollPeriod()
	rep.attempted++
	if !e.pr.fineEnough(fresh) {
		rep.failed++
	}

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
		layerReport(rep, layerWindow{s0: sMid, s1: s1, spans: tr.byLayer(), ops: float64(n), opName: "query",
			readings: float64(e.sent.Load() - sentEnd), queries: float64(n)})
		var busy float64
		pub := tr.byLayer()[spanPublish]
		busy = pub.sum() / 1e6
		rep.setLayer("transport.publish_blocked_share", busy/tsecs, 0, "share of wall time inside Publish (one open-loop sender)")
		rep.setLayer("transport.spool_depth_mean", spool.mean(), spool.n(), "sampled every 1ms")
		rep.setLayer("rest.response_bytes_mean", ratio(float64(bytesN), float64(n)), n, "")
		tl := e.lateness(sMid.at, s1.at)
		rep.setLayer("gen.late_ms_mean", tl.mean(), tl.n(), "")
		rep.setLayer("gen.late_ms_p99", tl.quantile(0.99), tl.n(), "")
		rep.setLayer("probe.poll_us_mean", poll, int(e.pr.polls), "")
		rep.setLayer("probe.cpu_share", e.pr.cpuShare(), 0, "probe thread CPU time per second of its life")
		rep.setLayer("trace.overhead_pct", overheadPct(qps, float64(ok)/tsecs), 0, "queries/s, untraced vs traced half")
		if err := writeSpans(tr, cfg.spanFile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// lateness returns how late the sends due in [a, b) started, in ms.
func (e *dashEnv) lateness(a, b time.Time) *samples {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := &samples{}
	for _, g := range e.gen {
		if !g.due.Before(a) && g.due.Before(b) {
			out.addDur(g.late)
		}
	}
	return out
}
