package persyst

import (
	"fmt"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
	"github.com/dcdb/wintermute/internal/sim/jobs"
)

const sec = int64(time.Second)

// rig: 2 nodes x 4 cpus with a "cpi" metric sensor per cpu; one job on
// both nodes, one job on the first node only.
type rig struct {
	qe    *core.QueryEngine
	table *jobs.Table
	op    *Operator
}

func newRig(t testing.TB) *rig {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	val := 0.0
	for n := 1; n <= 2; n++ {
		for c := 0; c < 4; c++ {
			topic := sensor.Topic(fmt.Sprintf("/r1/n%d/cpu%02d/cpi", n, c))
			if err := nav.AddSensor(topic); err != nil {
				t.Fatal(err)
			}
			val++
			// cpi values 1..8 across the 8 cores.
			caches.GetOrCreate(topic, 8, time.Second).
				Store(sensor.Reading{Value: val, Time: 10 * sec})
		}
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	table := jobs.NewTable()
	table.Add(core.Job{ID: "jobA", User: "u1", Nodes: []sensor.Topic{"/r1/n1/", "/r1/n2/"}, Start: 0})
	table.Add(core.Job{ID: "jobB", User: "u2", Nodes: []sensor.Topic{"/r1/n1/"}, Start: 0, End: 100 * sec})
	op, err := New(Config{Metric: "cpi"}, qe, core.Env{Jobs: table})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{qe: qe, table: table, op: op}
}

func TestRefreshUnitsPerJob(t *testing.T) {
	r := newRig(t)
	if err := r.op.RefreshUnits(r.qe, time.Unix(50, 0)); err != nil {
		t.Fatal(err)
	}
	us := r.op.Units()
	if len(us) != 2 {
		t.Fatalf("units = %d, want 2 running jobs", len(us))
	}
	if us[0].Name != "/jobs/jobA/" || us[1].Name != "/jobs/jobB/" {
		t.Fatalf("unit names = %v, %v", us[0].Name, us[1].Name)
	}
	if len(us[0].Inputs) != 8 {
		t.Errorf("jobA inputs = %d, want 8 (2 nodes x 4 cpus)", len(us[0].Inputs))
	}
	if len(us[1].Inputs) != 4 {
		t.Errorf("jobB inputs = %d, want 4", len(us[1].Inputs))
	}
	if len(us[0].Outputs) != 11 {
		t.Errorf("outputs = %d, want 11 deciles", len(us[0].Outputs))
	}
	if us[0].Outputs[0] != "/jobs/jobA/cpi-dec0" || us[0].Outputs[10] != "/jobs/jobA/cpi-dec10" {
		t.Errorf("output names = %v .. %v", us[0].Outputs[0], us[0].Outputs[10])
	}
}

func TestUnitsFollowJobLifecycle(t *testing.T) {
	r := newRig(t)
	// After jobB ends only jobA remains.
	if err := r.op.RefreshUnits(r.qe, time.Unix(150, 0)); err != nil {
		t.Fatal(err)
	}
	us := r.op.Units()
	if len(us) != 1 || us[0].Name != "/jobs/jobA/" {
		t.Fatalf("units after jobB end = %+v", us)
	}
}

func TestComputeDeciles(t *testing.T) {
	r := newRig(t)
	if err := r.op.RefreshUnits(r.qe, time.Unix(50, 0)); err != nil {
		t.Fatal(err)
	}
	us := r.op.Units()
	outs, err := r.op.Compute(r.qe, us[0], time.Unix(50, 0), core.NewTickContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 11 {
		t.Fatalf("outs = %d", len(outs))
	}
	// jobA sees cpi values 1..8: dec0 = 1, dec10 = 8, dec5 = 4.5.
	byName := map[string]float64{}
	for _, o := range outs {
		byName[o.Topic.Name()] = o.Reading.Value
	}
	if byName["cpi-dec0"] != 1 || byName["cpi-dec10"] != 8 {
		t.Errorf("dec0/dec10 = %v/%v", byName["cpi-dec0"], byName["cpi-dec10"])
	}
	if byName["cpi-dec5"] != 4.5 {
		t.Errorf("median = %v, want 4.5", byName["cpi-dec5"])
	}
}

func TestFullTickPublishesThroughSink(t *testing.T) {
	r := newRig(t)
	var pushed int
	sink := core.SinkFunc(func(sensor.Topic, sensor.Reading) { pushed++ })
	if err := core.Tick(r.op, r.qe, sink, time.Unix(50, 0)); err != nil {
		t.Fatal(err)
	}
	if pushed != 22 { // 2 jobs x 11 deciles
		t.Fatalf("pushed = %d, want 22", pushed)
	}
}

func TestCustomQuantiles(t *testing.T) {
	r := newRig(t)
	op, err := New(Config{Metric: "cpi", Quantiles: []float64{0.25, 0.75}}, r.qe, core.Env{Jobs: r.table})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.RefreshUnits(r.qe, time.Unix(50, 0)); err != nil {
		t.Fatal(err)
	}
	us := op.Units()
	if len(us[0].Outputs) != 2 {
		t.Fatalf("outputs = %v", us[0].Outputs)
	}
	if us[0].Outputs[0].Name() != "cpi-q25" {
		t.Errorf("quantile output name = %q", us[0].Outputs[0].Name())
	}
}

func TestConfigErrors(t *testing.T) {
	r := newRig(t)
	if _, err := New(Config{}, r.qe, core.Env{Jobs: r.table}); err == nil {
		t.Error("missing metric should fail")
	}
	if _, err := New(Config{Metric: "cpi"}, r.qe, core.Env{}); err == nil {
		t.Error("missing job provider should fail")
	}
	if _, err := New(Config{Metric: "cpi", Quantiles: []float64{1.5}}, r.qe, core.Env{Jobs: r.table}); err == nil {
		t.Error("out-of-range quantile should fail")
	}
}

func TestJobWithoutMetricSkipped(t *testing.T) {
	r := newRig(t)
	r.table.Add(core.Job{ID: "jobC", User: "u3", Nodes: []sensor.Topic{"/r9/nX/"}, Start: 0})
	if err := r.op.RefreshUnits(r.qe, time.Unix(50, 0)); err != nil {
		t.Fatal(err)
	}
	for _, u := range r.op.Units() {
		if u.Name == "/jobs/jobC/" {
			t.Fatal("job without metric sensors should be skipped")
		}
	}
}
