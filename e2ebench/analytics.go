package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/plugins/aggregator"
	"github.com/dcdb/wintermute/internal/plugins/perfmetrics"
	"github.com/dcdb/wintermute/internal/plugins/persyst"
	"github.com/dcdb/wintermute/internal/plugins/regressor"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/jobs"
)

// analytics: no broker and no HTTP. One goroutine runs closed-loop
// rounds: ingest one simulated second of every topic with
// Agent.IngestBatch, run Agent.TickOnce(now), advance the clock by 1 s.
// The operators are the paper's case-study mix: aggregator roll-ups
// (<bottomup-1>), perfmetrics CPI feeding persyst job deciles (fig7),
// and regressor power prediction (fig6).

const analyticsJobs = 4

type analyticsEnv struct {
	cfg runConfig
	sp  *space
	s   *stack
	tr  *tracer
	ops []core.Operator
	k   int64 // next simulated second
	buf [1]sensor.Reading
}

func (e *analyticsEnv) close() error { return e.s.close() }

// jobTable splits the nodes into analyticsJobs jobs running throughout.
func jobTable(sp *space) *jobs.Table {
	t := jobs.NewTable()
	per := (len(sp.nodes) + analyticsJobs - 1) / analyticsJobs
	for j := 0; j*per < len(sp.nodes); j++ {
		nodes := sp.nodes[j*per : min((j+1)*per, len(sp.nodes))]
		t.Add(core.Job{ID: fmt.Sprintf("job%d", j), User: "bench", Nodes: append([]sensor.Topic(nil), nodes...)})
	}
	return t
}

func newAnalyticsEnv(cfg runConfig, sp *space, tr *tracer) (*analyticsEnv, error) {
	env := core.Env{Jobs: jobTable(sp)}
	s, err := openStack(cfg.root, stackOptions{tr: tr, env: env})
	if err != nil {
		return nil, err
	}
	e := &analyticsEnv{cfg: cfg, sp: sp, s: s, tr: tr, k: baseSecond(cfg.seed)}
	e.ingest() // the sensor tree must exist before units are built
	qe := s.agent.QE
	var ops []core.Operator
	agg, err := aggregator.New(aggregator.Config{
		OperatorConfig: core.OperatorConfig{
			Name: "aggregator", Inputs: []string{"<bottomup>power"},
			Outputs: []string{"<bottomup-1>power-avg"}, IntervalMs: 1000,
		},
		Operation: aggregator.Mean, WindowMs: 10_000,
	}, qe)
	if err == nil {
		ops = append(ops, agg)
		var pm *perfmetrics.Operator
		pm, err = perfmetrics.New(perfmetrics.Config{
			OperatorConfig: core.OperatorConfig{
				Name: "perfmetrics", Inputs: []string{"<bottomup>cpu-cycles", "<bottomup>instructions"},
				Outputs: []string{"<bottomup>cpi"}, IntervalMs: 1000, Parallel: true,
			},
			WindowMs: 2000,
		}, qe)
		if err == nil {
			ops = append(ops, pm)
		}
	}
	if err == nil {
		var ps *persyst.Operator
		if ps, err = persyst.New(persyst.Config{Name: "persyst", Metric: "cpi", IntervalMs: 1000}, qe, env); err == nil {
			ops = append(ops, ps)
		}
	}
	if err == nil {
		var rg *regressor.Operator
		rg, err = regressor.New(regressor.Config{
			OperatorConfig: core.OperatorConfig{
				Name:    "regressor",
				Inputs:  []string{"<bottomup>power", "<bottomup>temp", "<bottomup>freq-scale", "<bottomup>idle-time"},
				Outputs: []string{"<bottomup>power-pred", "<bottomup>power-pred-err"}, IntervalMs: 1000,
			},
			Target: "power", TrainingSetSize: cfg.sizes.regressorTrain, Trees: 8, MaxDepth: 8, Seed: cfg.seed,
		}, qe)
		if err == nil {
			ops = append(ops, rg)
		}
	}
	for _, op := range ops {
		if err == nil {
			err = s.agent.Manager.AdoptOperator(op)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	e.ops = ops
	// Warm-up: counters differentiable, regressor trained, every output
	// flowing.
	for r := 0; r < cfg.sizes.analyticsWarm; r++ {
		if _, err := e.round(); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up tick: %w", err)
		}
	}
	return e, nil
}

// ingest pushes second e.k of every topic, one IngestBatch per topic.
func (e *analyticsEnv) ingest() {
	for i, tp := range e.sp.topics {
		e.buf[0] = e.sp.reading(i, e.k)
		t := e.tr.begin()
		e.s.agent.IngestBatch(tp, e.buf[:])
		e.tr.end(spanIngest, t)
	}
}

// round ticks the operators at second e.k, then ingests the next second.
// It returns the TickOnce duration.
func (e *analyticsEnv) round() (time.Duration, error) {
	now := time.Unix(e.k, 0)
	t := e.tr.begin()
	start := time.Now()
	err := e.s.agent.TickOnce(now)
	d := time.Since(start)
	e.tr.end(spanTick, t)
	e.k++
	e.ingest()
	return d, err
}

// outputs lists every operator output topic, sorted.
func (e *analyticsEnv) outputs() []sensor.Topic {
	var out []sensor.Topic
	for _, op := range e.ops {
		for _, u := range op.Units() {
			out = append(out, u.Outputs...)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func runAnalytics(cfg runConfig) (*report, error) {
	sp := newSpace(cfg.seed, cfg.sizes.nodes)
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	e, setup, err := setupRepeated(cfg.setups, func() (*analyticsEnv, error) { return newAnalyticsEnv(cfg, sp, tr) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	rep := newReport()
	db := e.s.agent.DB
	outs := e.outputs()
	before := make([]int, len(outs))

	var qmu sync.Mutex
	var queuedMax int
	var extra func()
	if cfg.traced {
		extra = func() {
			if tr.recording() {
				q := e.s.agent.Manager.SchedulerStats().Queued
				qmu.Lock()
				queuedMax = max(queuedMax, q)
				qmu.Unlock()
			}
		}
	}
	sm := startSampler(extra)
	var ticks, tracedTicks samples
	plug := map[string]*samples{}
	var attempted, failed int64
	for j, tp := range outs {
		before[j] = db.Count(tp)
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	s0 := takeSnap(e.s)
	untracedEnd := s0.at.Add(window)
	if cfg.traced {
		untracedEnd = s0.at.Add(window / 2)
	}
	var sMid snap
	for phase := 0; phase < 2; phase++ {
		deadline := untracedEnd
		if phase == 1 {
			if !cfg.traced {
				break
			}
			sMid = takeSnap(e.s)
			tr.enable(true)
			deadline = sMid.at.Add(window / 2)
		}
		for time.Now().Before(deadline) {
			d, err := e.round()
			attempted++
			if err != nil {
				failed++
				fmt.Println("check: tick:", err)
			}
			if phase == 0 {
				ticks.addDur(d)
				continue
			}
			tracedTicks.addDur(d)
			for _, st := range e.s.agent.Manager.Status() {
				if plug[st.Name] == nil {
					plug[st.Name] = &samples{}
				}
				plug[st.Name].addDur(st.LastDuration)
			}
		}
	}
	s1 := takeSnap(e.s)
	end := s1
	if cfg.traced {
		end = sMid
	}
	tr.enable(false)
	heap := sm.finish()

	// Every operator output topic gains exactly one reading per round.
	rounds := ticks.n() + tracedTicks.n()
	for j, tp := range outs {
		attempted++
		if got := db.Count(tp) - before[j]; got != rounds {
			failed++
			fmt.Printf("check: %s gained %d readings in %d rounds\n", tp, got, rounds)
		}
	}
	if err := db.Flush(); err != nil {
		return nil, err
	}
	st := db.Stats()
	rep.attempted, rep.failed = attempted, failed

	secs := end.at.Sub(s0.at).Seconds()
	rate := float64(ticks.n()) / secs
	bpr := ratio(float64(st.DiskBytes), float64(st.TotalReadings))
	rep.setE2E("setup_s", median(setup.v), setup.n())
	rep.setE2E("ops_per_s", rate, ticks.n())
	rep.setE2E("latency_mean_ms", ticks.mean(), ticks.n())
	rep.setE2E("latency_p95_ms", ticks.quantile(0.95), ticks.n())
	rep.setE2E("heap_peak_mb", heap, 0)
	rep.setE2E("bytes_per_reading", bpr, st.TotalReadings)
	rep.addNamed("setup_s", "s", median(setup.v), setup.n())
	rep.addNamed("rounds_per_s", "1/s", rate, ticks.n())
	rep.addNamed("tick_p50_ms", "ms", ticks.quantile(0.5), ticks.n())
	rep.addNamed("tick_p99_ms", "ms", ticks.quantile(0.99), ticks.n())
	rep.addNamed("heap_peak_mb", "MB", heap, 0)
	rep.addNamed("bytes_per_reading", "B", bpr, st.TotalReadings)
	fmt.Printf("operators: %d output topics checked over %d rounds\n", len(outs), rounds)

	if cfg.traced {
		n := float64(tracedTicks.n())
		tsecs := s1.at.Sub(sMid.at).Seconds()
		layerReport(rep, layerWindow{s0: sMid, s1: s1, spans: tr.byLayer(), ops: n, opName: "tick",
			readings: n * float64(len(sp.topics)+len(outs)), ticks: n})
		rep.setLayer("core.queued_max", float64(queuedMax), 0, "sampled every 1ms")
		for _, name := range []string{"aggregator", "perfmetrics", "persyst", "regressor"} {
			s := plug[name]
			if s == nil {
				s = &samples{}
			}
			rep.setLayer("plugins."+name+"_ms_p50", s.quantile(0.5), s.n(), "Manager.Status LastDuration")
		}
		rep.setLayer("trace.overhead_pct", overheadPct(rate, n/tsecs), 0, "rounds/s, untraced vs traced half")
		if err := writeSpans(tr, cfg.spanFile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
