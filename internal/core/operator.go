package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/sensor"
)

// Mode selects an operator's mode of operation (paper §IV-b).
type Mode int

const (
	// Online operators are invoked at regular intervals, producing
	// time-series-like output that feeds management decisions.
	Online Mode = iota
	// OnDemand operators compute only when explicitly invoked through the
	// RESTful API, and propagate output only in the response.
	OnDemand
)

// String returns the configuration keyword for the mode.
func (m Mode) String() string {
	if m == OnDemand {
		return "ondemand"
	}
	return "online"
}

// ParseMode converts a configuration keyword into a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "online":
		return Online, nil
	case "ondemand", "on-demand":
		return OnDemand, nil
	}
	return Online, fmt.Errorf("core: unknown mode %q", s)
}

// Output is one reading produced by an operator for an output sensor.
type Output struct {
	Topic   sensor.Topic
	Reading sensor.Reading
}

// Sink receives the readings produced by operators (and, in a Pusher, by
// sampler plugins). Implementations must be safe for concurrent use:
// parallel unit management pushes from multiple goroutines.
type Sink interface {
	Push(topic sensor.Topic, r sensor.Reading)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(topic sensor.Topic, r sensor.Reading)

// Push calls f(topic, r).
func (f SinkFunc) Push(topic sensor.Topic, r sensor.Reading) { f(topic, r) }

// TickContext carries reusable scratch buffers for one worker's unit
// computations, eliminating the per-unit-per-tick heap churn of building
// fresh reading and output slices in every Compute. The tick path hands
// each computation a pooled context; Compute implementations slice the
// buffers to zero length, use them, and store any growth back so the
// capacity is retained for the next unit.
//
// A context is owned by exactly one computation at a time; buffers (and
// any output slice aliasing them) are valid only until the computation's
// outputs have been delivered to the sink.
type TickContext struct {
	// Readings is scratch space for Query Engine calls.
	Readings []sensor.Reading
	// Outputs is scratch space for the produced outputs; Compute
	// conventionally appends into Outputs[:0] and returns the result.
	Outputs []Output
	// Floats is scratch space for intermediate numeric vectors whose
	// lifetime ends with the computation (per-unit feature or sample
	// buffers that are NOT retained in model state).
	Floats []float64
}

// NewTickContext returns a fresh, unpooled context for paths that hand
// computation results to a caller (on-demand triggers, direct calls in
// tests): outputs alias the context, so it must not be reused while they
// are live.
func NewTickContext() *TickContext { return &TickContext{} }

// tickCtxPool recycles contexts across ticks. sync.Pool gives effectively
// per-P caching, so steady-state workers keep reusing their own grown
// buffers without cross-worker contention.
var tickCtxPool = sync.Pool{New: func() any { return new(TickContext) }}

func getTickContext() *TickContext   { return tickCtxPool.Get().(*TickContext) }
func putTickContext(tc *TickContext) { tickCtxPool.Put(tc) }

// Operator is a computational entity performing an ODA task over a set of
// units (paper §V-C1). Implementations usually embed *Base and provide
// Compute.
type Operator interface {
	// Name identifies the operator instance.
	Name() string
	// Plugin names the operator plugin that created this operator.
	Plugin() string
	// Mode returns Online or OnDemand.
	Mode() Mode
	// Interval is the computation interval for Online operators.
	Interval() time.Duration
	// Parallel reports the unit-management policy: parallel units may be
	// computed concurrently (one model per unit); sequential units share
	// one model and are processed in order (paper §IV-c).
	Parallel() bool
	// Units returns the operator's units.
	Units() []*units.Unit
	// Compute performs the analysis for one unit at the given time,
	// returning readings for (a subset of) the unit's output sensors.
	// The returned outputs may alias tc's buffers: the caller consumes
	// them (pushes them to the sink or copies them) before handing tc
	// to the next computation.
	Compute(qe *QueryEngine, u *units.Unit, now time.Time, tc *TickContext) ([]Output, error)
}

// BatchOperator is implemented by operators whose analysis spans all units
// at once (e.g. clustering, where every unit is a point of one model).
// When implemented, ComputeBatch replaces per-unit Compute during ticks.
type BatchOperator interface {
	Operator
	ComputeBatch(qe *QueryEngine, now time.Time) ([]Output, error)
}

// DynamicUnitOperator is implemented by operators whose unit set changes
// over time, such as job operators that create one unit per running job
// (paper §V-C: job operator plugins). RefreshUnits runs before each tick.
type DynamicUnitOperator interface {
	Operator
	RefreshUnits(qe *QueryEngine, now time.Time) error
}

// Base carries the configuration and unit set common to all operators.
// Plugin operators embed *Base and implement Compute.
type Base struct {
	name     string
	plugin   string
	mode     Mode
	interval time.Duration
	parallel bool

	mu    sync.RWMutex
	units []*units.Unit
}

// NewBase constructs the embedded operator core.
func NewBase(name, plugin string, mode Mode, interval time.Duration, parallel bool) *Base {
	if interval <= 0 {
		interval = time.Second
	}
	return &Base{name: name, plugin: plugin, mode: mode, interval: interval, parallel: parallel}
}

// Name implements Operator.
func (b *Base) Name() string { return b.name }

// Plugin implements Operator.
func (b *Base) Plugin() string { return b.plugin }

// Mode implements Operator.
func (b *Base) Mode() Mode { return b.mode }

// Interval implements Operator.
func (b *Base) Interval() time.Duration { return b.interval }

// Parallel implements Operator.
func (b *Base) Parallel() bool { return b.parallel }

// Units implements Operator; the returned slice must not be mutated.
func (b *Base) Units() []*units.Unit {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.units
}

// SetUnits replaces the operator's unit set (used at configuration time
// and by dynamic-unit operators).
func (b *Base) SetUnits(us []*units.Unit) {
	b.mu.Lock()
	b.units = us
	b.mu.Unlock()
}

// FindUnit returns the unit with the given name, if present.
func (b *Base) FindUnit(name sensor.Topic) (*units.Unit, bool) {
	name = sensor.Clean(string(name)).AsNode()
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, u := range b.units {
		if u.Name == name {
			return u, true
		}
	}
	return nil, false
}

// Tick executes one computation round of an operator: it refreshes
// dynamic units, then computes either the whole batch or every unit —
// sequentially or in parallel according to the unit-management policy —
// and pushes all produced outputs to the sink. Unit failures do not stop
// other units, matching the isolation expected between independent
// per-unit models; all errors are aggregated with errors.Join so no
// failure is lost.
func Tick(op Operator, qe *QueryEngine, sink Sink, now time.Time) error {
	return TickScheduled(op, qe, sink, now, nil)
}

// TickScheduled is Tick with the computations executed on a Scheduler's
// worker pool: the whole sequential unit loop (or batch computation) runs
// as one pooled task preserving unit order, while parallel units fan out
// as one pooled task each, bounded by the pool size. A nil scheduler runs
// sequential units inline and parallel units on one goroutine per unit
// (the unbounded pre-pool behaviour).
//
// TickScheduled must not be called from inside a task running on the same
// scheduler: it waits for the tasks it submits, which would deadlock a
// fully occupied pool.
func TickScheduled(op Operator, qe *QueryEngine, sink Sink, now time.Time, sched *Scheduler) error {
	run := func(f func()) {
		if sched != nil {
			sched.Do(f)
		} else {
			f()
		}
	}
	if d, ok := op.(DynamicUnitOperator); ok {
		var err error
		run(func() { err = d.RefreshUnits(qe, now) })
		if err != nil {
			return fmt.Errorf("core: %s: refresh units: %w", op.Name(), err)
		}
	}
	if b, ok := op.(BatchOperator); ok {
		var outs []Output
		var err error
		run(func() { outs, err = b.ComputeBatch(qe, now) })
		PushOutputs(sink, outs)
		if err != nil {
			return fmt.Errorf("core: %s: %w", op.Name(), err)
		}
		return nil
	}
	us := op.Units()
	if !op.Parallel() {
		var err error
		run(func() {
			var errs []error
			tc := getTickContext()
			for _, u := range us {
				outs, cerr := op.Compute(qe, u, now, tc)
				if cerr != nil {
					errs = append(errs, fmt.Errorf("core: %s: unit %s: %w", op.Name(), u.Name, cerr))
				}
				// Outputs may alias tc; deliver them before the next unit
				// reuses the buffers.
				PushOutputs(sink, outs)
			}
			putTickContext(tc)
			err = errors.Join(errs...)
		})
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(us))
	for i, u := range us {
		wg.Add(1)
		task := func(i int, u *units.Unit) func() {
			return func() {
				defer wg.Done()
				tc := getTickContext()
				outs, err := op.Compute(qe, u, now, tc)
				if err != nil {
					errs[i] = fmt.Errorf("core: %s: unit %s: %w", op.Name(), u.Name, err)
				}
				PushOutputs(sink, outs)
				putTickContext(tc)
			}
		}(i, u)
		if sched != nil {
			sched.Submit(task)
		} else {
			go task()
		}
	}
	wg.Wait()
	return errors.Join(errs...)
}
