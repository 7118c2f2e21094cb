// Package aggregator implements the general-purpose aggregation operator
// plugin: per unit, it reduces the readings of all input sensors over a
// time window to a single statistic (mean, sum, min, max, std or latest
// delta) written to the unit's outputs.
//
// It is the workhorse for hierarchical roll-ups — e.g. rack power as the
// sum of node powers — and the first stage of many pipelines (paper
// §IV-d). Wintermute's production deployment on CooLMUC-3 "performs
// aggregation of monitored metrics" with exactly this kind of plugin.
package aggregator

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/ml/stats"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/store"
)

// Op names an aggregation function.
type Op string

// Supported aggregation operations. Mean, Min, Max and Std reduce over
// every reading of every input in the window; Sum adds the per-sensor
// window means (so a rack-power roll-up is the sum of node powers, not a
// multiple of it); Delta adds the per-sensor last-minus-first differences,
// the natural reduction for monotonic counters.
const (
	Mean  Op = "mean"
	Sum   Op = "sum"
	Min   Op = "min"
	Max   Op = "max"
	Std   Op = "std"
	Delta Op = "delta"
)

// Config parameterises an aggregator operator.
type Config struct {
	core.OperatorConfig
	// Operation is one of mean, sum, min, max, std, delta (default mean).
	Operation Op `json:"operation"`
	// WindowMs is the aggregation window in milliseconds (default: one
	// computation interval).
	WindowMs int `json:"windowMs"`
}

// Operator aggregates input readings into one statistic per unit.
type Operator struct {
	*core.Base
	op     Op
	window time.Duration
}

// New builds an aggregator operator from a parsed config.
func New(cfg Config, qe *core.QueryEngine) (*Operator, error) {
	switch cfg.Operation {
	case "":
		cfg.Operation = Mean
	case Mean, Sum, Min, Max, Std, Delta:
	default:
		return nil, fmt.Errorf("aggregator: unknown operation %q", cfg.Operation)
	}
	base, err := cfg.OperatorConfig.Build("aggregator", qe.Navigator())
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.WindowMs) * time.Millisecond
	if window <= 0 {
		window = cfg.OperatorConfig.IntervalDuration()
	}
	return &Operator{Base: base, op: cfg.Operation, window: window}, nil
}

// Compute implements core.Operator: queries go through the unit's bound
// sensor handles and all working slices live in the tick context, so the
// steady-state computation performs no allocations.
//
// Mean, Sum, Min and Max stream through the Query Engine's aggregation
// path (BoundSensor.AggregateRelative): the window is reduced inside
// the cache ring — or, on the store fallback, inside the backend's
// aggregation engine — without materializing raw readings. Std needs
// every value (variance) and Delta needs the window's first and last
// readings, so both keep the raw QueryRelative path.
func (o *Operator) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, tc *core.TickContext) ([]core.Output, error) {
	bu := qe.BindUnit(u)
	var w stats.Welford
	var agg store.AggResult
	var sum, deltaSum float64
	sensorsSeen := 0
	buf := tc.Readings
	for i := range u.Inputs {
		switch o.op {
		case Mean, Min, Max:
			a := bu.Inputs[i].AggregateRelative(o.window)
			if a.Count == 0 {
				continue
			}
			sensorsSeen++
			agg.Merge(a)
		case Sum:
			a := bu.Inputs[i].AggregateRelative(o.window)
			if a.Count == 0 {
				continue
			}
			sensorsSeen++
			sum += a.Sum / float64(a.Count)
		case Delta:
			buf = bu.Inputs[i].QueryRelative(o.window, buf[:0])
			if len(buf) == 0 {
				continue
			}
			sensorsSeen++
			deltaSum += buf[len(buf)-1].Value - buf[0].Value
		default: // Std
			buf = bu.Inputs[i].QueryRelative(o.window, buf[:0])
			if len(buf) == 0 {
				continue
			}
			sensorsSeen++
			for _, r := range buf {
				w.Add(r.Value)
			}
		}
	}
	tc.Readings = buf
	if sensorsSeen == 0 {
		return nil, fmt.Errorf("aggregator: unit %s has no data", u.Name)
	}
	var v float64
	switch o.op {
	case Mean:
		v, _ = agg.Value(store.AggAvg)
	case Sum:
		v = sum
	case Min:
		v = agg.Min
	case Max:
		v = agg.Max
	case Std:
		v = w.Std()
	case Delta:
		v = deltaSum
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("aggregator: unit %s produced non-finite %v", u.Name, v)
	}
	outs := tc.Outputs[:0]
	for _, out := range u.Outputs {
		outs = append(outs, core.Output{Topic: out, Reading: sensor.At(v, now)})
	}
	tc.Outputs = outs
	return outs, nil
}

func init() {
	core.RegisterPlugin("aggregator", func(raw json.RawMessage, qe *core.QueryEngine, env core.Env) ([]core.Operator, error) {
		var cfg Config
		if err := json.Unmarshal(raw, &cfg); err != nil {
			return nil, err
		}
		op, err := New(cfg, qe)
		if err != nil {
			return nil, err
		}
		return []core.Operator{op}, nil
	})
}
