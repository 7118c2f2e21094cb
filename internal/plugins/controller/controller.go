// Package controller implements a control operator plugin: the last stage
// of an analysis pipeline that turns processed sensor data into an
// actuation signal, closing the feedback loop of paper §IV-d ("control
// operators at the end of the pipeline that use processed data to tune
// system knobs") — the runtime-optimization class of the taxonomy.
//
// The operator is a proportional power-cap controller: per unit it
// compares the windowed average of a power sensor against a budget and
// publishes a frequency-scaling target in [min, max]. An actuator (the
// DVFS backend, or the hardware simulation in the examples) subscribes to
// the output sensor and applies the knob.
package controller

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/sensor"
)

// Config parameterises a controller operator.
type Config struct {
	core.OperatorConfig
	// BudgetW is the per-unit power budget in watts.
	BudgetW float64 `json:"budgetW"`
	// WindowMs is the power-averaging window (default: 4 intervals).
	WindowMs int `json:"windowMs"`
	// Gain is the proportional gain in knob units per watt of error
	// (default 0.002).
	Gain float64 `json:"gain"`
	// Min and Max clamp the published knob value (defaults 0.5 and 1.0,
	// matching the DVFS range of the hardware model).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Operator is a proportional power capper.
type Operator struct {
	*core.Base
	cfg    Config
	window time.Duration

	mu      sync.Mutex
	targets map[sensor.Topic]float64 // last knob value per unit
}

// New builds a controller operator from a parsed config.
func New(cfg Config, qe *core.QueryEngine) (*Operator, error) {
	if cfg.BudgetW <= 0 {
		return nil, fmt.Errorf("controller: budgetW must be positive")
	}
	if cfg.Gain <= 0 {
		cfg.Gain = 0.002
	}
	if cfg.Min <= 0 {
		cfg.Min = 0.5
	}
	if cfg.Max <= 0 || cfg.Max > 1 {
		cfg.Max = 1
	}
	if cfg.Min >= cfg.Max {
		return nil, fmt.Errorf("controller: min %v must be below max %v", cfg.Min, cfg.Max)
	}
	base, err := cfg.OperatorConfig.Build("controller", qe.Navigator())
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.WindowMs) * time.Millisecond
	if window <= 0 {
		window = 4 * cfg.OperatorConfig.IntervalDuration()
	}
	return &Operator{
		Base:    base,
		cfg:     cfg,
		window:  window,
		targets: make(map[sensor.Topic]float64),
	}, nil
}

// Compute implements core.Operator: knob <- clamp(knob - gain*(avgPower -
// budget)); over-budget power lowers the knob, headroom raises it back.
func (o *Operator) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, tc *core.TickContext) ([]core.Output, error) {
	if len(u.Inputs) == 0 || len(u.Outputs) == 0 {
		return nil, nil
	}
	bu := qe.BindUnit(u)
	avg, ok := bu.Inputs[0].Average(o.window)
	if !ok {
		return nil, nil
	}
	o.mu.Lock()
	knob, seen := o.targets[u.Name]
	if !seen {
		knob = o.cfg.Max
	}
	knob -= o.cfg.Gain * (avg - o.cfg.BudgetW)
	if knob < o.cfg.Min {
		knob = o.cfg.Min
	}
	if knob > o.cfg.Max {
		knob = o.cfg.Max
	}
	o.targets[u.Name] = knob
	o.mu.Unlock()
	outs := append(tc.Outputs[:0], core.Output{Topic: u.Outputs[0], Reading: sensor.At(knob, now)})
	tc.Outputs = outs
	return outs, nil
}

func init() {
	core.RegisterPlugin("controller", func(raw json.RawMessage, qe *core.QueryEngine, env core.Env) ([]core.Operator, error) {
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
