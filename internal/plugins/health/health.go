// Package health implements a threshold-based fault-detection operator
// plugin — the "fault detection" class of the paper's taxonomy (Figure 1,
// online + in-band). Per unit it grades the most recent reading of every
// input sensor against warning and critical thresholds and publishes the
// worst grade as a health status sensor:
//
//	0 = healthy, 1 = warning, 2 = critical, 3 = stale (no fresh data)
//
// Pointing the unit outputs one level up the tree turns per-node statuses
// into rack-level health roll-ups via an aggregator stage.
package health

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/sensor"
)

// Status values published by the plugin.
const (
	StatusOK       = 0
	StatusWarning  = 1
	StatusCritical = 2
	StatusStale    = 3
)

// Config parameterises a health operator.
type Config struct {
	core.OperatorConfig
	// WarnAbove and CritAbove grade readings exceeding the thresholds.
	WarnAbove float64 `json:"warnAbove"`
	CritAbove float64 `json:"critAbove"`
	// WarnBelow and CritBelow grade readings below the thresholds; they
	// are ignored when zero. (Use both directions for corridor checks.)
	WarnBelow float64 `json:"warnBelow"`
	CritBelow float64 `json:"critBelow"`
	// StaleAfterMs grades a sensor stale when its latest reading is older
	// than this (default: 10 computation intervals).
	StaleAfterMs int `json:"staleAfterMs"`
}

// Operator grades sensor readings against thresholds.
type Operator struct {
	*core.Base
	cfg   Config
	stale time.Duration
}

// New builds a health operator from a parsed config.
func New(cfg Config, qe *core.QueryEngine) (*Operator, error) {
	if cfg.CritAbove != 0 && cfg.WarnAbove != 0 && cfg.CritAbove < cfg.WarnAbove {
		return nil, fmt.Errorf("health: critAbove %v below warnAbove %v", cfg.CritAbove, cfg.WarnAbove)
	}
	base, err := cfg.OperatorConfig.Build("health", qe.Navigator())
	if err != nil {
		return nil, err
	}
	stale := time.Duration(cfg.StaleAfterMs) * time.Millisecond
	if stale <= 0 {
		stale = 10 * cfg.OperatorConfig.IntervalDuration()
	}
	return &Operator{Base: base, cfg: cfg, stale: stale}, nil
}

// grade returns the status of a single reading value.
func (o *Operator) grade(v float64) float64 {
	switch {
	case o.cfg.CritAbove != 0 && v > o.cfg.CritAbove:
		return StatusCritical
	case o.cfg.CritBelow != 0 && v < o.cfg.CritBelow:
		return StatusCritical
	case o.cfg.WarnAbove != 0 && v > o.cfg.WarnAbove:
		return StatusWarning
	case o.cfg.WarnBelow != 0 && v < o.cfg.WarnBelow:
		return StatusWarning
	}
	return StatusOK
}

// Compute implements core.Operator: the unit's status is the worst grade
// across its input sensors. Latest-reading probes go through bound
// handles and outputs land in the context's scratch buffer.
func (o *Operator) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, tc *core.TickContext) ([]core.Output, error) {
	bu := qe.BindUnit(u)
	worst := float64(StatusOK)
	for i := range u.Inputs {
		r, ok := bu.Inputs[i].Latest()
		var g float64
		switch {
		case !ok, now.UnixNano()-r.Time > int64(o.stale):
			g = StatusStale
		default:
			g = o.grade(r.Value)
		}
		if g > worst {
			worst = g
		}
	}
	outs := tc.Outputs[:0]
	for _, out := range u.Outputs {
		outs = append(outs, core.Output{Topic: out, Reading: sensor.At(worst, now)})
	}
	tc.Outputs = outs
	return outs, nil
}

func init() {
	core.RegisterPlugin("health", func(raw json.RawMessage, qe *core.QueryEngine, env core.Env) ([]core.Operator, error) {
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
