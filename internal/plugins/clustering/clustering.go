// Package clustering implements the Bayesian Gaussian mixture clustering
// operator plugin of the paper's case study 3 (§VI-D): long-term,
// system-wide characterisation of compute-node behaviour.
//
// The operator has one unit per compute node; "at every computation
// interval the operator computes 2-week averages for the input sensors of
// each unit. Then, each unit is treated as a data point in a
// three-dimensional space, and clustering is applied". The Bayesian
// mixture determines the number of clusters autonomously; points whose
// probability is below a threshold (0.001 in the paper) in the PDFs of
// all fitted Gaussian components are classified as outliers.
//
// This is a batch operator (all units form one model) instantiated in the
// Collect Agent, where the whole system's sensor space is visible.
package clustering

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/core/units"
	"github.com/dcdb/wintermute/internal/ml/bgmm"
	"github.com/dcdb/wintermute/internal/sensor"
)

// OutlierLabel is the cluster label published for outlier nodes.
const OutlierLabel = -1

// Config parameterises a clustering operator.
type Config struct {
	core.OperatorConfig
	// WindowMs is the aggregation window over which input sensors are
	// averaged (2 weeks in the paper's deployment).
	WindowMs int `json:"windowMs"`
	// Counters lists input sensor names that are cumulative counters
	// (e.g. "idle-time"): they are aggregated as last-first over the
	// window instead of averaged.
	Counters []string `json:"counters"`
	// MaxComponents truncates the mixture (default 8).
	MaxComponents int `json:"maxComponents"`
	// OutlierThreshold is the per-component density below which a point
	// is an outlier (default 0.001, the paper's setting), evaluated in
	// standardised space when Standardize is on.
	OutlierThreshold float64 `json:"outlierThreshold"`
	// Standardize z-scores the aggregated features before clustering so
	// the density threshold is scale-free (default true).
	Standardize *bool `json:"standardize"`
	Seed        int64 `json:"seed"`
}

// Result is the outcome of the latest clustering pass, retained for
// introspection by the REST API and the experiment harness.
type Result struct {
	Model    *bgmm.Model
	Units    []sensor.Topic // unit names in model row order
	Points   [][]float64    // aggregated (pre-standardisation) features
	Labels   []int          // cluster label per unit; OutlierLabel for outliers
	Outliers int
}

// Operator clusters per-node aggregate behaviour.
type Operator struct {
	*core.Base
	cfg       Config
	window    time.Duration
	threshold float64
	stdize    bool

	mu   sync.Mutex
	last *Result
}

// New builds a clustering operator from a parsed config.
func New(cfg Config, qe *core.QueryEngine) (*Operator, error) {
	base, err := cfg.OperatorConfig.Build("clustering", qe.Navigator())
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.WindowMs) * time.Millisecond
	if window <= 0 {
		window = cfg.OperatorConfig.IntervalDuration()
	}
	threshold := cfg.OutlierThreshold
	if threshold <= 0 {
		threshold = 0.001
	}
	stdize := true
	if cfg.Standardize != nil {
		stdize = *cfg.Standardize
	}
	return &Operator{
		Base:      base,
		cfg:       cfg,
		window:    window,
		threshold: threshold,
		stdize:    stdize,
	}, nil
}

// LastResult returns the most recent clustering result, if any.
func (o *Operator) LastResult() *Result {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.last
}

func (o *Operator) isCounter(name string) bool {
	for _, c := range o.cfg.Counters {
		if c == name {
			return true
		}
	}
	return false
}

// aggregate reduces one unit's inputs to its feature vector: windowed
// mean for gauges, last-first for counters. ok is false when any input
// lacks data. Queries go through the unit's bound handles, so the
// once-per-interval sweep over all fleet units costs no topic lookups.
func (o *Operator) aggregate(qe *core.QueryEngine, u *units.Unit, buf []sensor.Reading) (vec []float64, ok bool, out []sensor.Reading) {
	bu := qe.BindUnit(u)
	vec = make([]float64, 0, len(u.Inputs))
	for i, in := range u.Inputs {
		buf = bu.Inputs[i].QueryRelative(o.window, buf[:0])
		if len(buf) == 0 {
			return nil, false, buf
		}
		if o.isCounter(in.Name()) {
			vec = append(vec, buf[len(buf)-1].Value-buf[0].Value)
			continue
		}
		var sum float64
		for _, r := range buf {
			sum += r.Value
		}
		vec = append(vec, sum/float64(len(buf)))
	}
	return vec, true, buf
}

// Compute implements core.Operator but is never called directly: the
// manager always uses ComputeBatch for batch operators. It exists to
// satisfy the interface and computes the single unit via a batch pass.
func (o *Operator) Compute(qe *core.QueryEngine, u *units.Unit, now time.Time, _ *core.TickContext) ([]core.Output, error) {
	outs, err := o.ComputeBatch(qe, now)
	if err != nil {
		return nil, err
	}
	var mine []core.Output
	for _, out := range outs {
		if out.Topic.Node() == u.Name {
			mine = append(mine, out)
		}
	}
	return mine, nil
}

// ComputeBatch implements core.BatchOperator: every unit contributes one
// aggregated point; the mixture is fitted over all points and each unit's
// output sensor receives its cluster label (OutlierLabel for outliers).
func (o *Operator) ComputeBatch(qe *core.QueryEngine, now time.Time) ([]core.Output, error) {
	us := o.Units()
	res := &Result{}
	var buf []sensor.Reading
	var valid []*units.Unit
	for _, u := range us {
		vec, ok, b := o.aggregate(qe, u, buf)
		buf = b
		if !ok {
			continue
		}
		res.Points = append(res.Points, vec)
		res.Units = append(res.Units, u.Name)
		valid = append(valid, u)
	}
	if len(res.Points) < 3 {
		return nil, fmt.Errorf("clustering: only %d units have data", len(res.Points))
	}
	data := res.Points
	if o.stdize {
		data, _, _ = bgmm.Standardize(res.Points)
	}
	model, err := bgmm.Fit(data, bgmm.Params{
		MaxComponents: o.cfg.MaxComponents,
		Seed:          o.cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("clustering: %w", err)
	}
	res.Model = model
	res.Labels = make([]int, len(data))
	outs := make([]core.Output, 0, len(valid))
	for i, u := range valid {
		label := model.Assign(data[i])
		if model.IsOutlier(data[i], o.threshold) {
			label = OutlierLabel
			res.Outliers++
		}
		res.Labels[i] = label
		for _, out := range u.Outputs {
			outs = append(outs, core.Output{Topic: out, Reading: sensor.At(float64(label), now)})
		}
	}
	o.mu.Lock()
	o.last = res
	o.mu.Unlock()
	return outs, nil
}

func init() {
	core.RegisterPlugin("clustering", func(raw json.RawMessage, qe *core.QueryEngine, env core.Env) ([]core.Operator, error) {
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
