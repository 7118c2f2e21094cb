// Package wintermute holds the repository-level benchmark suite: one
// bench per evaluation figure of the paper plus the ablation benches
// called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package wintermute

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/collect"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/ml/bgmm"
	"github.com/dcdb/wintermute/internal/ml/forest"
	"github.com/dcdb/wintermute/internal/ml/quantile"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/plugins/aggregator"
	"github.com/dcdb/wintermute/internal/plugins/tester"
	"github.com/dcdb/wintermute/internal/rest"
	"github.com/dcdb/wintermute/internal/resultcache"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/cluster"
	"github.com/dcdb/wintermute/internal/store"
	"github.com/dcdb/wintermute/internal/telemetry"
	"github.com/dcdb/wintermute/internal/transport"
	"github.com/dcdb/wintermute/internal/tsdb"

	_ "github.com/dcdb/wintermute/internal/plugins/all"
)

const sec = int64(time.Second)

// --- Figure 5 ablation: cache view modes --------------------------------

func filledCache(n int) *cache.Cache {
	c := cache.New(n, time.Second)
	for i := 0; i < n; i++ {
		c.Store(sensor.Reading{Value: float64(i), Time: int64(i) * sec})
	}
	return c
}

// BenchmarkCacheViewRelative measures the O(1) relative view (Fig. 5b's
// query path).
func BenchmarkCacheViewRelative(b *testing.B) {
	c := filledCache(180)
	buf := make([]sensor.Reading, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.ViewRelative(50*time.Second, buf[:0])
	}
	_ = buf
}

// BenchmarkCacheViewAbsolute measures the O(log N) binary-search view
// (Fig. 5a's query path).
func BenchmarkCacheViewAbsolute(b *testing.B) {
	c := filledCache(180)
	latest, _ := c.Latest()
	buf := make([]sensor.Reading, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.ViewAbsolute(latest.Time-50*sec, latest.Time, buf[:0])
	}
	_ = buf
}

// --- Figure 5: tester operator query load -------------------------------

func testerEnv(b *testing.B, sensors int) (*core.QueryEngine, *core.Manager) {
	b.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	for i := 0; i < sensors; i++ {
		topic := sensor.Topic(fmt.Sprintf("/node/test%d", i))
		if err := nav.AddSensor(topic); err != nil {
			b.Fatal(err)
		}
		c := caches.GetOrCreate(topic, 180, time.Second)
		for k := 0; k < 180; k++ {
			c.Store(sensor.Reading{Value: float64(k), Time: int64(k) * sec})
		}
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	sink := core.NewCacheSink(caches, nav, 180, time.Second)
	m := core.NewManager(qe, sink, core.Env{})
	b.Cleanup(m.Close)
	return qe, m
}

func benchTesterOperator(b *testing.B, absolute bool) {
	qe, m := testerEnv(b, 1000)
	inputs := make([]string, 1000)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("test%d", i)
	}
	raw, _ := json.Marshal(tester.Config{
		OperatorConfig: core.OperatorConfig{
			Name: "t", Inputs: inputs, Outputs: []string{"n"}, Unit: "/node/",
		},
		Queries:  1000,
		WindowMs: 100000,
		Absolute: absolute,
	})
	if err := m.LoadPlugin("tester", raw); err != nil {
		b.Fatal(err)
	}
	now := time.Unix(179, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.TickAll(now); err != nil {
			b.Fatal(err)
		}
	}
	_ = qe
}

// BenchmarkQueryEngineRelative reproduces Fig. 5's heaviest relative-mode
// cell: 1000 queries over 100 s ranges per interval.
func BenchmarkQueryEngineRelative(b *testing.B) { benchTesterOperator(b, false) }

// BenchmarkQueryEngineAbsolute reproduces the same cell in absolute mode.
func BenchmarkQueryEngineAbsolute(b *testing.B) { benchTesterOperator(b, true) }

// --- Ablation: cache hit vs store fallback ------------------------------

func BenchmarkQueryCacheHit(b *testing.B) {
	nav := navigator.New()
	caches := cache.NewSet()
	st := store.New(0)
	_ = nav.AddSensor("/n/power")
	c := caches.GetOrCreate("/n/power", 180, time.Second)
	for k := 0; k < 180; k++ {
		r := sensor.Reading{Value: float64(k), Time: int64(k) * sec}
		c.Store(r)
		st.Insert("/n/power", r)
	}
	qe := core.NewQueryEngine(nav, caches, st)
	buf := make([]sensor.Reading, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = qe.QueryRelative("/n/power", 60*time.Second, buf[:0])
	}
	_ = buf
}

func BenchmarkQueryStoreFallback(b *testing.B) {
	nav := navigator.New()
	caches := cache.NewSet()
	st := store.New(0)
	_ = nav.AddSensor("/n/power")
	for k := 0; k < 180; k++ {
		st.Insert("/n/power", sensor.Reading{Value: float64(k), Time: int64(k) * sec})
	}
	qe := core.NewQueryEngine(nav, caches, st) // no cache: store answers
	buf := make([]sensor.Reading, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = qe.QueryRelative("/n/power", 60*time.Second, buf[:0])
	}
	_ = buf
}

// --- Tentpole: bound sensor handles vs per-call topic resolution ---------

// boundQueryEnv builds one hot sensor served from a populated cache set.
func boundQueryEnv(b *testing.B) *core.QueryEngine {
	b.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	_ = nav.AddSensor("/n/power")
	c := caches.GetOrCreate("/n/power", 180, time.Second)
	for k := 0; k < 180; k++ {
		c.Store(sensor.Reading{Value: float64(k), Time: int64(k) * sec})
	}
	return core.NewQueryEngine(nav, caches, nil)
}

// BenchmarkQueryRelativeUnbound is the per-call resolution path: every
// query pays the FNV topic hash, the shard map lookup and the shard RLock
// before touching the ring buffer.
func BenchmarkQueryRelativeUnbound(b *testing.B) {
	qe := boundQueryEnv(b)
	buf := make([]sensor.Reading, 0, 256)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = qe.QueryRelative("/n/power", 60*time.Second, buf[:0])
	}
	_ = buf
}

// BenchmarkQueryRelativeBound is the same query through a bound handle:
// topic resolution was paid once at Bind time, the steady state goes
// straight to the ring buffer — and performs zero allocations.
func BenchmarkQueryRelativeBound(b *testing.B) {
	qe := boundQueryEnv(b)
	h := qe.Bind("/n/power")
	buf := make([]sensor.Reading, 0, 256)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = h.QueryRelative(60*time.Second, buf[:0])
	}
	_ = buf
}

// --- Tentpole: per-tick allocations with scratch arenas -----------------

// tickAllocEnv builds an aggregator over 64 node units whose caches are
// warm, the steady-state shape of a roll-up operator.
func tickAllocEnv(b *testing.B) (*core.QueryEngine, core.Operator, core.Sink) {
	b.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	for n := 0; n < 64; n++ {
		topic := sensor.Topic(fmt.Sprintf("/r1/n%02d/power", n))
		_ = nav.AddSensor(topic)
		c := caches.GetOrCreate(topic, 180, time.Second)
		for k := 0; k < 180; k++ {
			c.Store(sensor.Reading{Value: float64(k), Time: int64(k) * sec})
		}
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	op, err := aggregator.New(aggregator.Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "agg",
			Inputs:  []string{"power"},
			Outputs: []string{"<bottomup>power-agg"},
		},
		Operation: aggregator.Mean,
		WindowMs:  60000,
	}, qe)
	if err != nil {
		b.Fatal(err)
	}
	return qe, op, core.SinkFunc(func(sensor.Topic, sensor.Reading) {})
}

// BenchmarkTickComputeScratch drives 64 sequential unit computations per
// tick with pooled scratch arenas and bound sensor handles: the
// steady-state tick performs ~zero allocations.
func BenchmarkTickComputeScratch(b *testing.B) {
	qe, op, sink := tickAllocEnv(b)
	now := time.Unix(179, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := core.Tick(op, qe, sink, now); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Unit System at scale ------------------------------------------------

// BenchmarkUnitResolution instantiates one pattern-unit block over the
// full CooLMUC-3 tree (148 nodes x 64 cores), producing one unit per core
// — the large-scale configuration mechanism of paper §III-C.
func BenchmarkUnitResolution(b *testing.B) {
	nav := navigator.New()
	if err := cluster.CooLMUC3().Populate(nav); err != nil {
		b.Fatal(err)
	}
	tpl, err := units.NewTemplate(
		[]string{"<bottomup>cpu-cycles", "<bottomup>instructions"},
		[]string{"<bottomup>cpi"},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		us, err := tpl.Instantiate(nav)
		if err != nil {
			b.Fatal(err)
		}
		if len(us) != 148*64 {
			b.Fatalf("units = %d", len(us))
		}
	}
}

// BenchmarkPatternParse measures pattern-expression parsing.
func BenchmarkPatternParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := units.Parse("<bottomup, filter cpu>cpu-cycles"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: sequential vs parallel unit management (§IV-c) -----------

func unitMgmtEnv(b *testing.B, parallel bool) (*core.QueryEngine, core.Operator, core.Sink) {
	b.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	for n := 0; n < 64; n++ {
		topic := sensor.Topic(fmt.Sprintf("/r1/n%02d/power", n))
		_ = nav.AddSensor(topic)
		c := caches.GetOrCreate(topic, 180, time.Second)
		for k := 0; k < 180; k++ {
			c.Store(sensor.Reading{Value: float64(k), Time: int64(k) * sec})
		}
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	cfg := tester.Config{
		OperatorConfig: core.OperatorConfig{
			Name:     "t",
			Inputs:   []string{"power"},
			Outputs:  []string{"<bottomup>out"},
			Parallel: parallel,
		},
		Queries:  200,
		WindowMs: 100000,
	}
	op, err := tester.New(cfg, qe)
	if err != nil {
		b.Fatal(err)
	}
	return qe, op, core.SinkFunc(func(sensor.Topic, sensor.Reading) {})
}

func BenchmarkUnitsSequential(b *testing.B) {
	qe, op, sink := unitMgmtEnv(b, false)
	now := time.Unix(179, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Tick(op, qe, sink, now); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnitsParallel(b *testing.B) {
	qe, op, sink := unitMgmtEnv(b, true)
	now := time.Unix(179, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Tick(op, qe, sink, now); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tentpole: pooled TickAll under many-operator contention -------------

// probeOp models an in-band analytics operator at realistic shape: each
// per-unit computation issues cache queries through the Query Engine (lock
// contention on the sharded cache.Set) and then pays a fixed probe latency,
// standing in for the blocking reads of perf counters / sysfs / IPMI that
// real node-level operators perform. Operator-level concurrency can overlap
// the probes; the query load contends on the cache shards.
type probeOp struct {
	*core.Base
	queries int
	probe   time.Duration
}

// Compute runs the probe workload on the zero-allocation path: bound
// sensor handles and context scratch, like the production plugins.
func (o *probeOp) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, tc *core.TickContext) ([]core.Output, error) {
	bu := qe.BindUnit(u)
	buf := tc.Readings
	for q := 0; q < o.queries; q++ {
		buf = bu.Inputs[q%len(u.Inputs)].QueryRelative(100*time.Second, buf[:0])
	}
	tc.Readings = buf
	if o.probe > 0 {
		time.Sleep(o.probe)
	}
	outs := tc.Outputs[:0]
	for _, topic := range u.Outputs {
		outs = append(outs, core.Output{Topic: topic, Reading: sensor.At(float64(len(buf)), now)})
	}
	tc.Outputs = outs
	return outs, nil
}

type probeConfig struct {
	Ops     int `json:"ops"`
	Queries int `json:"queries"`
	ProbeUs int `json:"probeUs"`
}

func init() {
	core.RegisterPlugin("benchprobe", func(cfg json.RawMessage, qe *core.QueryEngine, env core.Env) ([]core.Operator, error) {
		var c probeConfig
		if err := json.Unmarshal(cfg, &c); err != nil {
			return nil, err
		}
		ops := make([]core.Operator, 0, c.Ops)
		for i := 0; i < c.Ops; i++ {
			oc := core.OperatorConfig{
				Name:     fmt.Sprintf("probe%d", i),
				Inputs:   []string{"power"},
				Outputs:  []string{fmt.Sprintf("<bottomup>probe%d", i)},
				Parallel: true,
			}
			base, err := oc.Build("benchprobe", qe.Navigator())
			if err != nil {
				return nil, err
			}
			probe := time.Duration(c.ProbeUs) * time.Microsecond
			ops = append(ops, &probeOp{Base: base, queries: c.Queries, probe: probe})
		}
		return ops, nil
	})
}

// benchTickAllContention drives 8 online operators with parallel units (16
// units each) over one sharded cache.Set through Manager.TickAll, with the
// manager's worker pool sized by threads. threads=1 is the sequential
// baseline: every computation of every operator runs one after another,
// like the pre-scheduler TickAll.
func benchTickAllContention(b *testing.B, threads int) {
	benchTickAllContentionCfg(b, threads, 100)
}

// benchTickAllContentionCfg drives the contention workload with a chosen
// probe latency. probeUs=0 removes the fixed probe sleep so the query and
// allocation costs dominate — the configuration that isolates the cost of
// the bound-handle and scratch-arena hot path.
func benchTickAllContentionCfg(b *testing.B, threads, probeUs int) {
	nav := navigator.New()
	caches := cache.NewSet()
	for n := 0; n < 16; n++ {
		topic := sensor.Topic(fmt.Sprintf("/r1/n%02d/power", n))
		if err := nav.AddSensor(topic); err != nil {
			b.Fatal(err)
		}
		c := caches.GetOrCreate(topic, 180, time.Second)
		for k := 0; k < 180; k++ {
			c.Store(sensor.Reading{Value: float64(k), Time: int64(k) * sec})
		}
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	sink := core.NewCacheSink(caches, nav, 180, time.Second)
	m := core.NewManager(qe, sink, core.Env{})
	m.SetThreads(threads)
	b.Cleanup(m.Close)
	raw, _ := json.Marshal(probeConfig{Ops: 8, Queries: 25, ProbeUs: probeUs})
	if err := m.LoadPlugin("benchprobe", raw); err != nil {
		b.Fatal(err)
	}
	now := time.Unix(179, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.TickAll(now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTickAllContentionSequential is the pre-scheduler baseline: one
// computation at a time.
func BenchmarkTickAllContentionSequential(b *testing.B) { benchTickAllContention(b, 1) }

// BenchmarkTickAllContentionPooled runs the same load on an 8-thread pool
// (the paper's `threads` knob); 8 operators x 16 parallel units overlap
// both their probe latencies and their cache queries.
func BenchmarkTickAllContentionPooled(b *testing.B) { benchTickAllContention(b, 8) }

// BenchmarkTickAllQueryContentionBound is the probe-free contention
// workload on the bound handle + scratch arena path: 8 operators x 16
// parallel units on an 8-thread pool.
func BenchmarkTickAllQueryContentionBound(b *testing.B) {
	benchTickAllContentionCfg(b, 8, 0)
}

// --- Figure 6: random forest ---------------------------------------------

func trainedForest(b *testing.B, trees, depth int) (*forest.Forest, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	n, d := 4000, 28 // 4 sensors x 7 features, like the regressor
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.Float64()
		}
		y[i] = 150 + 50*x[i][0] - 30*x[i][7] + rng.NormFloat64()*5
	}
	f := forest.New(forest.Params{Trees: trees, MaxDepth: depth, Seed: 3})
	if err := f.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	return f, x[0]
}

// BenchmarkRegressorPredict measures one online prediction of the Fig. 6
// model (32 trees, 28 features) — the per-interval inference cost that
// must stay negligible next to 250 ms sampling.
func BenchmarkRegressorPredict(b *testing.B) {
	f, probe := trainedForest(b, 32, 12)
	b.ResetTimer()
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s += f.Predict(probe)
	}
	_ = s
}

// BenchmarkForestSweep ablates ensemble size and depth.
func BenchmarkForestSweep(b *testing.B) {
	for _, cfg := range []struct{ trees, depth int }{
		{8, 8}, {32, 12}, {64, 16},
	} {
		b.Run(fmt.Sprintf("trees=%d/depth=%d", cfg.trees, cfg.depth), func(b *testing.B) {
			f, probe := trainedForest(b, cfg.trees, cfg.depth)
			b.ResetTimer()
			var s float64
			for i := 0; i < b.N; i++ {
				s += f.Predict(probe)
			}
			_ = s
		})
	}
}

// --- Figure 7: decile aggregation ----------------------------------------

// BenchmarkDeciles2048 measures one persyst decile computation over 2048
// per-core CPI samples — "each decile is aggregated from 2048 samples at
// a time" (paper §VI-C).
func BenchmarkDeciles2048(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 2048)
	for i := range vals {
		vals[i] = 1.5 + rng.ExpFloat64()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := quantile.Deciles(vals)
		if d[0] > d[10] {
			b.Fatal("deciles inverted")
		}
	}
}

// --- Figure 8: Bayesian GMM ----------------------------------------------

// BenchmarkBGMMFit148 measures one clustering pass at the paper's fleet
// size: 148 nodes x 3 aggregate metrics, the hourly computation of §VI-D.
func BenchmarkBGMMFit148(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([][]float64, 148)
	centers := [][]float64{{95, 47.5, 5e5}, {145, 50.5, 2.7e5}, {195, 53.5, 5e4}}
	for i := range x {
		c := centers[i%3]
		x[i] = []float64{
			c[0] + rng.NormFloat64()*6,
			c[1] + rng.NormFloat64()*0.4,
			c[2] + rng.NormFloat64()*3e4,
		}
	}
	z, _, _ := bgmm.Standardize(x)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := bgmm.Fit(z, bgmm.Params{MaxComponents: 8, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if m.NumActive() < 2 {
			b.Fatalf("clusters = %d", m.NumActive())
		}
	}
}

// --- Substrate micro-benches ----------------------------------------------

func BenchmarkStoreInsert(b *testing.B) {
	st := store.New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Insert("/n/power", sensor.Reading{Value: float64(i), Time: int64(i)})
	}
}

func BenchmarkStoreRange(b *testing.B) {
	st := store.New(0)
	for i := 0; i < 100000; i++ {
		st.Insert("/n/power", sensor.Reading{Value: float64(i), Time: int64(i) * sec})
	}
	buf := make([]sensor.Reading, 0, 512)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = st.Range("/n/power", 50000*sec, 50300*sec, buf[:0])
	}
	_ = buf
}

func BenchmarkNavigatorResolve(b *testing.B) {
	nav := navigator.New()
	if err := cluster.CooLMUC3().Populate(nav); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := nav.Resolve("/r03/c02/s05/"); !ok {
			b.Fatal("resolve failed")
		}
	}
}

// BenchmarkTransportPublish measures the Pusher->Collect Agent data path:
// encode, route through the broker, decode and deliver locally.
func BenchmarkTransportPublish(b *testing.B) {
	broker, err := transport.NewBroker("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer broker.Close()
	recv := make(chan struct{}, 1024)
	broker.SubscribeLocal("#", func(m transport.Message) { recv <- struct{}{} })
	client, err := transport.Dial(broker.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	batch := make([]sensor.Reading, 10)
	for i := range batch {
		batch[i] = sensor.Reading{Value: float64(i), Time: int64(i)}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := client.Publish("/r1/n1/power", batch); err != nil {
			b.Fatal(err)
		}
		<-recv
	}
}

// --- PR10: at-least-once delivery overhead ------------------------------

// benchPublishDelivery measures sustained publish->local-delivery
// throughput with the chosen client mode: the fire-and-forget v1
// client, or the spooled at-least-once client whose batches travel as
// acknowledged v2 frames. Publishes are pipelined (the production
// shape: pushers never wait per batch) and one op is one batch fully
// delivered. The pair bounds the ack machinery's no-fault throughput
// overhead (acceptance: acked within 5% of unacked); the acked side
// fails unless Close drains with every published batch acknowledged.
func benchPublishDelivery(b *testing.B, spool int) {
	broker, err := transport.NewBroker("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer broker.Close()
	target := int64(b.N)
	var delivered atomic.Int64
	done := make(chan struct{}, 1)
	broker.SubscribeLocal("#", func(m transport.Message) {
		if delivered.Add(1) == target {
			done <- struct{}{}
		}
	})
	var client *transport.Client
	if spool > 0 {
		client, err = transport.DialOptions(broker.Addr(), transport.Options{SpoolBatches: spool})
	} else {
		client, err = transport.Dial(broker.Addr())
	}
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]sensor.Reading, 10)
	for i := range batch {
		batch[i] = sensor.Reading{Value: float64(i), Time: int64(i)}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := client.Publish("/r1/n1/power", batch); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	err = client.Close()
	if st := client.Stats(); spool > 0 && (err != nil || st.Acked != st.Published) {
		b.Fatalf("spool did not drain clean: close %v, %d of %d batches acked", err, st.Acked, st.Published)
	}
}

// BenchmarkPublishUnacked is the fire-and-forget baseline of the pair.
func BenchmarkPublishUnacked(b *testing.B) { benchPublishDelivery(b, 0) }

// BenchmarkPublishAcked routes the same workload through the spool:
// v2 frames, broker PubAcks, client-side ack tracking.
func BenchmarkPublishAcked(b *testing.B) { benchPublishDelivery(b, 1024) }

// --- PR3: persistent storage backend (tsdb) vs in-memory store ----------

// tsdbBenchSeries generates the paired-bench workload: regularly sampled
// integer-ish sensor values, the shape the Gorilla compressor is built
// for.
func tsdbBenchSeries(n int) []sensor.Reading {
	rng := rand.New(rand.NewSource(7))
	rs := make([]sensor.Reading, n)
	for i := range rs {
		rs[i] = sensor.Reading{
			Value: 100 + float64(i%23) + float64(rng.Intn(5)),
			Time:  int64(i) * sec,
		}
	}
	return rs
}

// BenchmarkBackendInsertBatchMemory / ...TSDB pair the batched ingest
// path of both store.Backend implementations: 64-reading batches, the
// shape one delivered MQTT message produces.
func BenchmarkBackendInsertBatchMemory(b *testing.B) {
	st := store.New(0)
	benchBackendInsertBatch(b, st)
}

func BenchmarkBackendInsertBatchTSDB(b *testing.B) {
	db, err := tsdb.Open(b.TempDir(), tsdb.Options{FlushEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	benchBackendInsertBatch(b, db)
	// Close flushes everything inserted (cost scales with b.N): keep it
	// out of the timed window or it pollutes the insert ns/op.
	b.StopTimer()
	db.Close()
	b.StartTimer()
}

func benchBackendInsertBatch(b *testing.B, backend store.Backend) {
	batch := tsdbBenchSeries(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j].Time = int64(i*64+j) * sec
		}
		backend.InsertBatch("/n/power", batch)
	}
}

// BenchmarkBackendRangeMemory / ...TSDB pair a 300-reading range query
// against 100k stored readings; the tsdb variant answers from a
// compressed segment (decode included).
func BenchmarkBackendRangeMemory(b *testing.B) {
	st := store.New(0)
	st.InsertBatch("/n/power", tsdbBenchSeries(100000))
	benchBackendRange(b, st)
}

func BenchmarkBackendRangeTSDB(b *testing.B) {
	db, err := tsdb.Open(b.TempDir(), tsdb.Options{FlushEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	db.InsertBatch("/n/power", tsdbBenchSeries(100000))
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	benchBackendRange(b, db)
	b.StopTimer()
	db.Close()
	b.StartTimer()
}

func benchBackendRange(b *testing.B, backend store.Backend) {
	buf := make([]sensor.Reading, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = backend.Range("/n/power", 50000*sec, 50300*sec, buf[:0])
	}
	if len(buf) != 301 {
		b.Fatalf("range = %d readings", len(buf))
	}
}

// BenchmarkTSDBRecoveryOpen measures crash recovery: opening a database
// whose WAL holds 64 topics x 256 readings with no prior flush. Each
// iteration recovers a fresh copy of the crash directory (copied outside
// the timer) so the measured state never accumulates WAL files or open
// descriptors across iterations.
func BenchmarkTSDBRecoveryOpen(b *testing.B) {
	crashDir := b.TempDir()
	db, err := tsdb.Open(crashDir, tsdb.Options{FlushEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	rs := tsdbBenchSeries(256)
	for n := 0; n < 64; n++ {
		db.InsertBatch(sensor.Topic(fmt.Sprintf("/r1/n%02d/power", n)), rs)
	}
	// db is never Closed: crashDir is the post-kill on-disk state.
	copies := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := fmt.Sprintf("%s/i%d", copies, i)
		copyCrashState(b, crashDir, dir)
		b.StartTimer()
		db2, err := tsdb.Open(dir, tsdb.Options{FlushEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if db2.TotalReadings() != 64*256 {
			b.Fatalf("recovered %d readings", db2.TotalReadings())
		}
		b.StopTimer()
		db2.Close()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

// copyCrashState clones a tsdb directory tree (wal/ and seg/ files).
func copyCrashState(b *testing.B, src, dst string) {
	b.Helper()
	for _, sub := range []string{"wal", "seg"} {
		if err := os.MkdirAll(filepath.Join(dst, sub), 0o755); err != nil {
			b.Fatal(err)
		}
		entries, err := os.ReadDir(filepath.Join(src, sub))
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(src, sub, e.Name()))
			if err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, sub, e.Name()), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// storageAnswers is everything a client can read back from the
// BenchmarkStorageRecovery corpus: each topic's full range and latest
// reading, plus one raw REST query.
type storageAnswers struct {
	ranges map[sensor.Topic][]sensor.Reading
	latest map[sensor.Topic]sensor.Reading
	rest   string
}

func readStorageAnswers(b *testing.B, a *collect.Agent, topics []sensor.Topic, hi int64) storageAnswers {
	b.Helper()
	ans := storageAnswers{ranges: map[sensor.Topic][]sensor.Reading{}, latest: map[sensor.Topic]sensor.Reading{}}
	for _, tp := range topics {
		ans.ranges[tp] = a.Store.Range(tp, 0, hi, nil)
		if r, ok := a.Store.Latest(tp); ok {
			ans.latest[tp] = r
		}
	}
	w := httptest.NewRecorder()
	rest.NewHandler(a.Manager, a.QE).ServeHTTP(w, httptest.NewRequest("GET",
		fmt.Sprintf("/query?sensor=%s&from=0&to=%d", topics[0], hi), nil))
	if w.Code != 200 {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	ans.rest = w.Body.String()
	return ans
}

// BenchmarkStorageRecovery is the storage acceptance scenario: a Collect
// Agent persists 102,400 readings over 64 topics, flushes them into
// segments and is killed without Close. One op is a second agent
// recovering a copy of that directory. Set-up fails unless every Range,
// Latest and REST answer survives recovery unchanged, and reports the
// amortised on-disk footprint as B/reading (acceptance: below 4).
func BenchmarkStorageRecovery(b *testing.B) {
	const perTopic = 1600
	dir := b.TempDir()
	agent, err := collect.New(collect.Config{StoreDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	topics := make([]sensor.Topic, 64)
	rng := rand.New(rand.NewSource(11))
	for n := range topics {
		topics[n] = sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", n/8, n%8))
		for k := 0; k < perTopic; k += 64 {
			batch := make([]sensor.Reading, 64)
			for j := range batch {
				batch[j] = sensor.Reading{Value: 100 + float64((k+j)%23) + float64(rng.Intn(5)), Time: int64(k+j) * sec}
			}
			agent.IngestBatch(topics[n], batch)
		}
	}
	// Force the steady state the footprint bound is defined over: heads
	// compacted into segments, WAL retired.
	if err := agent.DB.Flush(); err != nil {
		b.Fatal(err)
	}
	hi := int64(perTopic) * sec
	before := readStorageAnswers(b, agent, topics, hi)
	// Kill: Abandon releases file handles and the directory lock the way
	// process death would, with no flush and no WAL sync.
	agent.Manager.Close()
	agent.DB.Abandon()

	copies := b.TempDir()
	reopen := func(i int) *collect.Agent {
		b.StopTimer()
		dst := fmt.Sprintf("%s/i%d", copies, i)
		copyCrashState(b, dir, dst)
		b.StartTimer()
		a, err := collect.New(collect.Config{StoreDir: dst})
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	a := reopen(-1)
	after := readStorageAnswers(b, a, topics, hi)
	if after.rest != before.rest {
		b.Fatalf("REST answer changed across recovery:\n%s\n%s", before.rest, after.rest)
	}
	for _, tp := range topics {
		x, y := before.ranges[tp], after.ranges[tp]
		if len(x) != len(y) || before.latest[tp] != after.latest[tp] {
			b.Fatalf("%s: %d readings before recovery, %d after", tp, len(x), len(y))
		}
		for j := range x {
			if x[j] != y[j] {
				b.Fatalf("%s reading %d: %+v before recovery, %+v after", tp, j, x[j], y[j])
			}
		}
	}
	diskBytes := a.DB.Stats().DiskBytes
	a.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := reopen(i)
		b.StopTimer()
		a.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(diskBytes)/float64(len(topics)*perTopic), "B/reading")
}

// --- PR4: aggregation engine vs naive Range+reduce -----------------------

// aggBenchDB builds the PR4 acceptance corpus: 100k+ readings across 64
// topics, flushed into segments so the per-chunk pre-aggregates exist.
func aggBenchDB(b *testing.B) (*tsdb.DB, []sensor.Topic) {
	b.Helper()
	db, err := tsdb.Open(b.TempDir(), tsdb.Options{FlushEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	rs := tsdbBenchSeries(1600) // 64 x 1600 = 102,400 readings
	topics := make([]sensor.Topic, 64)
	for n := range topics {
		topics[n] = sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", n/8, n%8))
		db.InsertBatch(topics[n], rs)
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	return db, topics
}

// checkAggEquivalent fails the benchmark unless the engine answers exactly
// like naive Range+reduce on full, boundary and bucketed windows of every
// topic of the corpus.
func checkAggEquivalent(b *testing.B, db *tsdb.DB, topics []sensor.Topic) {
	b.Helper()
	for _, tp := range topics {
		for _, w := range [][2]int64{{0, 1600 * sec}, {137 * sec, 731 * sec}} {
			if got, want := db.Aggregate(tp, w[0], w[1]), store.AggregateNaive(db, tp, w[0], w[1]); got != want {
				b.Fatalf("%s [%d,%d]: engine %+v, naive %+v", tp, w[0], w[1], got, want)
			}
		}
		got := db.Downsample(tp, 0, 1600*sec, 60*sec, nil)
		want := store.DownsampleNaive(db, tp, 0, 1600*sec, 60*sec, nil)
		if len(got) != len(want) {
			b.Fatalf("%s: engine %d buckets, naive %d", tp, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				b.Fatalf("%s bucket %d: engine %+v, naive %+v", tp, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkAggregateNaiveRange is the before side of the PR4 pair: an
// average over every topic's full history computed the pre-engine way —
// materialize the raw range into a slice, reduce it in the caller, throw
// the slice away.
func BenchmarkAggregateNaiveRange(b *testing.B) {
	db, topics := aggBenchDB(b)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total store.AggResult
		for _, tp := range topics {
			total.Merge(store.AggregateNaive(db, tp, 0, 1600*sec))
		}
		if total.Count != 102400 {
			b.Fatalf("aggregated %d readings", total.Count)
		}
	}
}

// BenchmarkAggregateEngine is the after side: the same query through the
// tsdb aggregation engine — fully-covered chunks answer from index
// pre-aggregates in O(1), no reading is materialized.
func BenchmarkAggregateEngine(b *testing.B) {
	db, topics := aggBenchDB(b)
	defer db.Close()
	checkAggEquivalent(b, db, topics)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total store.AggResult
		for _, tp := range topics {
			total.Merge(db.Aggregate(tp, 0, 1600*sec))
		}
		if total.Count != 102400 {
			b.Fatalf("aggregated %d readings", total.Count)
		}
	}
}

// BenchmarkDownsampleNaiveRange / ...Engine pair 60-second bucketed
// averages over one topic's 1600-reading history: materialize+bucket in
// the caller vs the engine's streaming chunk decode.
func BenchmarkDownsampleNaiveRange(b *testing.B) {
	db, topics := aggBenchDB(b)
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var buckets []store.Bucket
	for i := 0; i < b.N; i++ {
		buckets = store.DownsampleNaive(db, topics[i%len(topics)], 0, 1600*sec, 60*sec, buckets[:0])
		if len(buckets) != 27 {
			b.Fatalf("%d buckets", len(buckets))
		}
	}
}

func BenchmarkDownsampleEngine(b *testing.B) {
	db, topics := aggBenchDB(b)
	defer db.Close()
	checkAggEquivalent(b, db, topics)
	b.ReportAllocs()
	b.ResetTimer()
	var buckets []store.Bucket
	for i := 0; i < b.N; i++ {
		buckets = db.Downsample(topics[i%len(topics)], 0, 1600*sec, 60*sec, buckets[:0])
		if len(buckets) != 27 {
			b.Fatalf("%d buckets", len(buckets))
		}
	}
}

// --- Concurrent ingest through the group-commit WAL ----------------------

// benchIngestConcurrent measures sustained multi-writer InsertBatch
// throughput: `writers` goroutines each appending 64-reading batches to
// their own topic. One op is one batch, so ns/op is the sustained
// per-batch cost across the whole writer cohort.
func benchIngestConcurrent(b *testing.B, writers int, walSync bool, reg *telemetry.Registry) {
	db, err := tsdb.Open(b.TempDir(), tsdb.Options{
		FlushEvery: -1,
		WALSync:    walSync,
		Metrics:    reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	proto := tsdbBenchSeries(64)
	topics := make([]sensor.Topic, writers)
	for w := range topics {
		topics[w] = sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", w/8, w%8))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]sensor.Reading, len(proto))
			copy(batch, proto)
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				for j := range batch {
					batch[j].Time = (i*64 + int64(j)) * sec
				}
				db.InsertBatch(topics[w], batch)
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	db.Close()
	b.StartTimer()
}

// BenchmarkIngestConcurrentGrouped runs 8–32 writers with WAL sync on
// and off: writers encode outside the lock and share one write + one
// fsync per commit cohort, and head resolution touches only the topic's
// shard.
func BenchmarkIngestConcurrentGrouped(b *testing.B) {
	for _, writers := range []int{8, 16, 32} {
		for _, walSync := range []bool{false, true} {
			b.Run(fmt.Sprintf("writers=%d/sync=%v", writers, walSync), func(b *testing.B) {
				benchIngestConcurrent(b, writers, walSync, nil)
			})
		}
	}
}

// --- PR7: dashboard read path — result cache + wildcard topic index ------

// dashReadings sizes each sensor's history: a dashboard-scale window
// (2000 points per sensor, 64 sensors) so the uncached side pays a
// realistic recompute per request.
const dashReadings = 2000

// dashBenchStack builds a Collect-Agent-shaped serving stack: 64 sensors
// x dashReadings readings in the in-memory backend, write-through invalidation
// wired when a result cache is supplied, and the REST handler on top. plain
// is an uncached, uninstrumented handler over the same stack.
func dashBenchStack(b *testing.B, rc *resultcache.Cache, reg *telemetry.Registry) (h, plain http.Handler, sink *core.CacheSink, topics []sensor.Topic) {
	b.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	st := store.New(0)
	sink = core.NewCacheSink(caches, nav, 16, time.Second)
	sink.Store = st
	sink.Results = rc
	rs := make([]sensor.Reading, dashReadings)
	for i := range rs {
		rs[i] = sensor.Reading{Value: float64(i), Time: int64(i) * sec}
	}
	topics = make([]sensor.Topic, 64)
	for n := range topics {
		topics[n] = sensor.Topic(fmt.Sprintf("/r%02d/n%02d/power", n/8, n%8))
		sink.PushSeries(topics[n], rs)
	}
	qe := core.NewQueryEngine(nav, caches, st)
	m := core.NewManager(qe, sink, core.Env{})
	b.Cleanup(func() { m.Close() })
	plain = rest.NewHandler(m, qe)
	if reg != nil {
		// Full production instrumentation: backend gauges, result-cache
		// counters, scheduler gauges, per-route HTTP metrics and traces.
		store.RegisterBackendMetrics(reg, st)
		if rc != nil {
			rc.RegisterMetrics(reg)
		}
		m.EnableTelemetry(reg)
		return rest.NewHandler(m, qe, rest.Options{ResultCache: rc, Metrics: reg}), plain, sink, topics
	}
	if rc != nil {
		return rest.NewHandler(m, qe, rest.Options{ResultCache: rc}), plain, sink, topics
	}
	return plain, plain, sink, topics
}

// benchDashboardQuery measures the dashboard steady state: one hot
// wildcard aggregate (64 sensors, step-aligned absolute window) issued
// repeatedly while a writer keeps ingesting in-order readings beyond
// the window — the shape where the frontier shortcut keeps the memoized
// entry valid. One op is one full HTTP round trip through the handler.
// With a result cache, set-up first checks that the memoized answer is
// byte-identical to a fresh recompute.
func benchDashboardQuery(b *testing.B, rc *resultcache.Cache, reg *telemetry.Registry) {
	h, plain, sink, topics := dashBenchStack(b, rc, reg)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for t := int64(dashReadings); ; t++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, tp := range topics {
				sink.Push(tp, sensor.Reading{Value: 1, Time: t * sec})
			}
			time.Sleep(time.Millisecond)
		}
	}()
	target := "/query?op=avg&sensor=/%23&start=0&end=" + strconv.FormatInt((dashReadings-1)*sec, 10)
	serve := func(h http.Handler) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		return w
	}
	if rc != nil {
		// The writer only appends in-order beyond the window, so the
		// memoized entry (the second request) and a recompute must agree.
		serve(h)
		if cached, fresh := serve(h).Body.String(), serve(plain).Body.String(); cached != fresh {
			b.Fatalf("cached response differs from recompute:\n%s\n%s", cached, fresh)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(h)
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkDashboardQueryUncached is the before side of the PR7 pair:
// every request re-expands the wildcard and re-aggregates 64 windows.
func BenchmarkDashboardQueryUncached(b *testing.B) { benchDashboardQuery(b, nil, nil) }

// BenchmarkDashboardQueryCached is the after side: the same requests
// served from the memoized op-independent payload, revalidated against
// the ingest frontier per lookup.
func BenchmarkDashboardQueryCached(b *testing.B) {
	benchDashboardQuery(b, resultcache.New(1024, 0), nil)
}

// --- PR8: telemetry overhead — instrumented hot paths, switch on vs off --

// benchIngestTelemetry re-runs the PR5 grouped-ingest shape (16 writers,
// no WAL sync — the configuration where fixed per-batch cost is smallest
// and instrumentation overhead proportionally largest) with a registry
// attached to the engine. `on` toggles the global telemetry switch: the
// off side still executes every instrumented call site and pays exactly
// the one-atomic-load gate the disabled path promises.
func benchIngestTelemetry(b *testing.B, on bool) {
	telemetry.SetEnabled(on)
	b.Cleanup(func() { telemetry.SetEnabled(true) })
	benchIngestConcurrent(b, 16, false, telemetry.NewRegistry())
}

func BenchmarkIngestTelemetryOff(b *testing.B) { benchIngestTelemetry(b, false) }
func BenchmarkIngestTelemetryOn(b *testing.B)  { benchIngestTelemetry(b, true) }

// benchDashboardTelemetry re-runs the PR7 cached dashboard scenario with
// the serving tier fully instrumented: per-route counters and latency
// histogram, in-flight gauge, request traces, result-cache and backend
// series. One op remains one HTTP round trip.
func benchDashboardTelemetry(b *testing.B, on bool) {
	telemetry.SetEnabled(on)
	b.Cleanup(func() { telemetry.SetEnabled(true) })
	benchDashboardQuery(b, resultcache.New(1024, 0), telemetry.NewRegistry())
}

func BenchmarkDashboardTelemetryOff(b *testing.B) { benchDashboardTelemetry(b, false) }
func BenchmarkDashboardTelemetryOn(b *testing.B)  { benchDashboardTelemetry(b, true) }

// linearScanBackend hides the in-memory store's PrefixMatcher, forcing
// the dispatcher's filter-everything fallback (the pre-PR7 cost shape).
type linearScanBackend struct{ store.Backend }

// benchWildcardExpand measures '#' expansion of one 8-sensor rack while
// the namespace holds n topics: with the sorted prefix index the cost
// tracks the match count, without it the full (re-sorted) topic listing.
func benchWildcardExpand(b *testing.B, n int, indexed bool) {
	st := store.New(0)
	for i := 0; i < n; i++ {
		st.Insert(sensor.Topic(fmt.Sprintf("/r%03d/n%d/power", i/8, i%8)),
			sensor.Reading{Value: 1, Time: 1})
	}
	var be store.Backend = st
	if !indexed {
		be = linearScanBackend{st}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := store.TopicsPrefix(be, "/r000"); len(got) != 8 {
			b.Fatalf("%d matches", len(got))
		}
	}
}

// BenchmarkWildcardExpandIndexed64 / ...4096 are the acceptance pair:
// expansion cost must be independent of namespace size.
func BenchmarkWildcardExpandIndexed64(b *testing.B)   { benchWildcardExpand(b, 64, true) }
func BenchmarkWildcardExpandIndexed4096(b *testing.B) { benchWildcardExpand(b, 4096, true) }

// BenchmarkWildcardExpandLinear64 / ...4096 show the fallback scaling
// with namespace size instead.
func BenchmarkWildcardExpandLinear64(b *testing.B)   { benchWildcardExpand(b, 64, false) }
func BenchmarkWildcardExpandLinear4096(b *testing.B) { benchWildcardExpand(b, 4096, false) }
