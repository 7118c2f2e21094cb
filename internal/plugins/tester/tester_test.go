package tester

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

const sec = int64(time.Second)

func env(t testing.TB, sensors, readings int) *core.QueryEngine {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	for i := 0; i < sensors; i++ {
		topic := sensor.Topic("/node/").Join("test" + string(rune('a'+i)))
		if err := nav.AddSensor(topic); err != nil {
			t.Fatal(err)
		}
		c := caches.GetOrCreate(topic, readings, time.Second)
		for k := 0; k < readings; k++ {
			c.Store(sensor.Reading{Value: float64(k), Time: int64(k) * sec})
		}
	}
	return core.NewQueryEngine(nav, caches, nil)
}

func TestComputeCountsReadings(t *testing.T) {
	qe := env(t, 4, 100)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name:   "t1",
			Inputs: []string{"testa", "testb", "testc", "testd"},
			Outputs: []string{
				"tester-readings",
			},
			Unit: "/node/",
		},
		Queries:  8,
		WindowMs: 9000, // 10 readings per query at 1s interval
	}
	op, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	u := op.Units()[0]
	outs, err := op.Compute(qe, u, time.Unix(99, 0), core.NewTickContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Topic != "/node/tester-readings" {
		t.Fatalf("outs = %+v", outs)
	}
	if outs[0].Reading.Value != 8*10 {
		t.Fatalf("readings = %v, want 80", outs[0].Reading.Value)
	}
	if op.ReadingsRetrieved() != 80 {
		t.Fatalf("ReadingsRetrieved = %d", op.ReadingsRetrieved())
	}
}

func TestAbsoluteAndRelativeAgree(t *testing.T) {
	for _, window := range []int{0, 5000, 50000} {
		var got [2]float64
		for i, abs := range []bool{false, true} {
			qe := env(t, 2, 60)
			cfg := Config{
				OperatorConfig: core.OperatorConfig{
					Name: "t", Inputs: []string{"testa", "testb"},
					Outputs: []string{"n"}, Unit: "/node/",
				},
				Queries: 10, WindowMs: window, Absolute: abs,
			}
			op, err := New(cfg, qe)
			if err != nil {
				t.Fatal(err)
			}
			// Query at the time of the newest reading so absolute windows
			// anchored at "now" line up with relative ones.
			outs, err := op.Compute(qe, op.Units()[0], time.Unix(59, 0), core.NewTickContext())
			if err != nil {
				t.Fatal(err)
			}
			got[i] = outs[0].Reading.Value
		}
		if got[0] != got[1] {
			t.Errorf("window %d: relative %v != absolute %v", window, got[0], got[1])
		}
	}
}

func TestWindowZeroFetchesLatestOnly(t *testing.T) {
	qe := env(t, 1, 50)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name: "t", Inputs: []string{"testa"}, Outputs: []string{"n"}, Unit: "/node/",
		},
		Queries: 5, WindowMs: 0,
	}
	op, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := op.Compute(qe, op.Units()[0], time.Unix(49, 0), core.NewTickContext())
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Reading.Value != 5 {
		t.Fatalf("readings = %v, want 5 (one per query)", outs[0].Reading.Value)
	}
}

func TestDefaultQueries(t *testing.T) {
	qe := env(t, 1, 10)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name: "t", Inputs: []string{"testa"}, Outputs: []string{"n"}, Unit: "/node/",
		},
	}
	op, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	if op.cfg.Queries != 1 {
		t.Fatalf("default queries = %d", op.cfg.Queries)
	}
}

func TestPluginRegistration(t *testing.T) {
	qe := env(t, 2, 10)
	sink := core.SinkFunc(func(sensor.Topic, sensor.Reading) {})
	m := core.NewManager(qe, sink, core.Env{})
	raw, _ := json.Marshal(Config{
		OperatorConfig: core.OperatorConfig{
			Name: "via-registry", Inputs: []string{"testa"},
			Outputs: []string{"count"}, Unit: "/node/",
		},
		Queries: 3,
	})
	if err := m.LoadPlugin("tester", raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Operator("via-registry"); !ok {
		t.Fatal("operator not created via registry")
	}
	if err := m.LoadPlugin("tester", []byte("{bad json")); err == nil {
		t.Error("bad json should fail")
	}
}

func TestBadConfig(t *testing.T) {
	qe := env(t, 1, 10)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name: "t", Inputs: []string{"missing-sensor"}, Outputs: []string{"n"}, Unit: "/node/",
		},
	}
	if _, err := New(cfg, qe); err == nil {
		t.Error("missing input sensor should fail")
	}
}
