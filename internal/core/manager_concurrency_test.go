package core

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

// blockingOp sleeps in Compute and records how many computations of this
// operator run at once.
type blockingOp struct {
	*Base
	dur    time.Duration
	active atomic.Int32
	peak   atomic.Int32
}

func (o *blockingOp) Compute(qe *QueryEngine, u *units.Unit, now time.Time, _ *TickContext) ([]Output, error) {
	a := o.active.Add(1)
	for {
		p := o.peak.Load()
		if a <= p || o.peak.CompareAndSwap(p, a) {
			break
		}
	}
	time.Sleep(o.dur)
	o.active.Add(-1)
	return nil, nil
}

func newBlockingOp(t testing.TB, nav *navigator.Navigator, name string, dur time.Duration) *blockingOp {
	t.Helper()
	cfg := OperatorConfig{
		Name:    name,
		Inputs:  []string{"power"},
		Outputs: []string{"block-" + name},
		Unit:    "/r0/n0/",
	}
	base, err := cfg.Build("blocktest", nav)
	if err != nil {
		t.Fatal(err)
	}
	return &blockingOp{Base: base, dur: dur}
}

func registerOpList(t *testing.T, plugin string, ops ...Operator) {
	t.Helper()
	RegisterPlugin(plugin, func(json.RawMessage, *QueryEngine, Env) ([]Operator, error) {
		return ops, nil
	})
}

// TestTickAllJoinsErrors verifies that TickAll reports every failing
// operator instead of only the first one.
func TestTickAllJoinsErrors(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	for _, s := range []sensor.Topic{"/r0/n0/hollow", "/r0/n1/hollow"} {
		if err := nav.AddSensor(s); err != nil {
			t.Fatal(err)
		}
	}
	var ops []Operator
	for _, name := range []string{"joinA", "joinB"} {
		cfg := OperatorConfig{
			Name:    name,
			Inputs:  []string{"hollow"},
			Outputs: []string{"hollow-" + name},
			Unit:    "/r0/n" + string(name[len(name)-1]-'A'+'0') + "/",
		}
		base, err := cfg.Build("jointest", nav)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, &avgOperator{Base: base})
	}
	registerOpList(t, "jointest", ops...)
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	t.Cleanup(m.Close)
	if err := m.LoadPlugin("jointest", nil); err != nil {
		t.Fatal(err)
	}
	err := m.TickAll(time.Unix(1, 0))
	if err == nil {
		t.Fatal("expected errors from both operators")
	}
	for _, name := range []string{"joinA", "joinB"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q is missing operator %s", err, name)
		}
	}
}

// TestTickJoinsUnitErrors verifies that a sequential tick aggregates every
// failing unit instead of dropping all but the first.
func TestTickJoinsUnitErrors(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	for _, s := range []sensor.Topic{"/r0/n0/void", "/r0/n1/void", "/r1/n0/void", "/r1/n1/void"} {
		if err := nav.AddSensor(s); err != nil {
			t.Fatal(err)
		}
	}
	cfg := OperatorConfig{
		Name:    "voidavg",
		Inputs:  []string{"void"},
		Outputs: []string{"<bottomup>void-avg"},
	}
	base, err := cfg.Build("voidtest", nav)
	if err != nil {
		t.Fatal(err)
	}
	op := &avgOperator{Base: base}
	if got := len(op.Units()); got != 4 {
		t.Fatalf("units = %d, want 4", got)
	}
	err = Tick(op, qe, NewCacheSink(caches, nav, 16, time.Second), time.Unix(1, 0))
	if err == nil {
		t.Fatal("expected unit errors")
	}
	for _, unit := range []string{"/r0/n0/", "/r1/n1/"} {
		if !strings.Contains(err.Error(), unit) {
			t.Errorf("error %q is missing unit %s", err, unit)
		}
	}
}

// TestTickAllDispatchesConcurrently verifies that independent operators
// overlap during TickAll once the pool has capacity for them.
func TestTickAllDispatchesConcurrently(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	var ops []Operator
	for _, name := range []string{"conc0", "conc1", "conc2", "conc3"} {
		ops = append(ops, newBlockingOp(t, nav, name, 10*time.Millisecond))
	}
	registerOpList(t, "conctest", ops...)
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	t.Cleanup(m.Close)
	m.SetThreads(4)
	if err := m.LoadPlugin("conctest", nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := m.TickAll(time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Sequential execution would need >= 40ms; concurrent dispatch on a
	// 4-thread pool needs barely more than 10ms. The generous bound keeps
	// the test robust on loaded CI machines.
	if elapsed >= 35*time.Millisecond {
		t.Errorf("TickAll of 4 blocking operators took %v; expected concurrent dispatch well under 35ms", elapsed)
	}
}

// TestNoOverlappingTicksPerOperator verifies the per-operator serialization
// guarantee: concurrent TickAll calls (and wall-clock loops) never overlap
// two ticks of the same operator.
func TestNoOverlappingTicksPerOperator(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	op := newBlockingOp(t, nav, "serial", time.Millisecond)
	registerOpList(t, "serialtest", op)
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	t.Cleanup(m.Close)
	m.SetThreads(4)
	if err := m.LoadPlugin("serialtest", nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				_ = m.TickAll(time.Unix(int64(k), 0))
			}
		}()
	}
	wg.Wait()
	if p := op.peak.Load(); p != 1 {
		t.Errorf("peak concurrent computes of one operator = %d, want 1", p)
	}
	st := m.Status()
	if len(st) != 1 || st[0].Ticks != 40 {
		t.Errorf("status = %+v, want 40 ticks", st)
	}
	if st[0].LastDuration <= 0 {
		t.Errorf("LastDuration = %v, want > 0", st[0].LastDuration)
	}
}

// TestManagerStartStopStatusRace hammers lifecycle, status and tick paths
// from many goroutines; run under -race it guards the lock discipline of
// Manager (including the Status lock-order fix).
func TestManagerStartStopStatusRace(t *testing.T) {
	nav, caches, _, qe := testEnv(t)
	var ops []Operator
	for _, name := range []string{"raceA", "raceB", "raceC"} {
		cfg := OperatorConfig{
			Name:       name,
			Inputs:     []string{"power"},
			Outputs:    []string{"<bottomup>race-" + name},
			IntervalMs: 1,
			Parallel:   name == "raceB",
		}
		base, err := cfg.Build("racetest", nav)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, &avgOperator{Base: base})
	}
	registerOpList(t, "racetest", ops...)
	m := NewManager(qe, NewCacheSink(caches, nav, 16, time.Second), Env{})
	t.Cleanup(m.Close)
	if err := m.LoadPlugin("racetest", nil); err != nil {
		t.Fatal(err)
	}
	m.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i {
				case 0:
					_ = m.Status()
				case 1:
					_ = m.TickAll(time.Unix(100, 0))
				case 2:
					_ = m.StopOperator("raceA")
					_ = m.StartOperator("raceA")
				case 3:
					_ = m.Operators()
					_, _ = m.Operator("raceB")
					_ = m.SchedulerStats()
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	m.Stop()
	for _, st := range m.Status() {
		if st.Running {
			t.Errorf("operator %s still running after Stop", st.Name)
		}
	}
}

// TestManagerThreadsConfig verifies the `threads` knob: SetThreads and the
// Config field both resize the pool.
func TestManagerThreadsConfig(t *testing.T) {
	_, caches, _, qe := testEnv(t)
	m := NewManager(qe, NewCacheSink(caches, qe.Navigator(), 16, time.Second), Env{})
	t.Cleanup(m.Close)
	m.SetThreads(3)
	if m.Threads() != 3 {
		t.Fatalf("Threads = %d, want 3", m.Threads())
	}
	var cfg Config
	if err := json.Unmarshal([]byte(`{"threads": 2, "plugins": []}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if m.Threads() != 2 {
		t.Fatalf("Threads after LoadConfig = %d, want 2", m.Threads())
	}
	if st := m.SchedulerStats(); st.Threads != 2 {
		t.Fatalf("SchedulerStats.Threads = %d, want 2", st.Threads)
	}
}
