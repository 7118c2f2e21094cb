package clustering

import (
	"fmt"
	"testing"
	"time"

	"github.com/dcdb/wintermute/internal/cache"
	"github.com/dcdb/wintermute/internal/core"
	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

const sec = int64(time.Second)

// rig builds 30 nodes in three behaviour groups (idle / normal / loaded)
// plus one strong outlier, with power, temp and idle-time sensors.
func newRig(t testing.TB) (*core.QueryEngine, *Operator) {
	t.Helper()
	nav := navigator.New()
	caches := cache.NewSet()
	groups := []struct {
		power, temp, idleRate float64
	}{
		{90, 47.5, 0.9},  // idle-ish
		{140, 50.5, 0.4}, // normal
		{195, 53.5, 0.1}, // loaded
	}
	addNode := func(name string, power, temp, idleRate float64) {
		base := sensor.Topic("/r1/").JoinNode(name)
		for _, s := range []string{"power", "temp", "idle-time"} {
			if err := nav.AddSensor(base.Join(s)); err != nil {
				t.Fatal(err)
			}
		}
		pc := caches.GetOrCreate(base.Join("power"), 64, time.Second)
		tc := caches.GetOrCreate(base.Join("temp"), 64, time.Second)
		ic := caches.GetOrCreate(base.Join("idle-time"), 64, time.Second)
		for k := 0; k < 60; k++ {
			ts := int64(k) * sec
			jitter := float64(k%5) * 0.3
			pc.Store(sensor.Reading{Value: power + jitter, Time: ts})
			tc.Store(sensor.Reading{Value: temp + jitter/10, Time: ts})
			ic.Store(sensor.Reading{Value: idleRate * float64(k), Time: ts})
		}
	}
	// 25 nodes per group: large enough that a singleton outlier component
	// falls below the weight-pruning threshold, as at the paper's
	// 148-node fleet scale.
	n := 0
	for _, spec := range groups {
		for i := 0; i < 25; i++ {
			addNode(fmt.Sprintf("n%02d", n), spec.power+float64(i%3), spec.temp, spec.idleRate)
			n++
		}
	}
	// Outlier: consumes far more power than its idle time justifies.
	addNode("n98", 260, 58, 0.9)
	qe := core.NewQueryEngine(nav, caches, nil)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Name:    "clust",
			Inputs:  []string{"power", "temp", "idle-time"},
			Outputs: []string{"<bottomup>cluster-label"},
		},
		WindowMs:      60000,
		Counters:      []string{"idle-time"},
		MaxComponents: 6,
		Seed:          3,
	}
	op, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	return qe, op
}

func TestClusterDiscovery(t *testing.T) {
	qe, op := newRig(t)
	if len(op.Units()) != 76 {
		t.Fatalf("units = %d, want 76", len(op.Units()))
	}
	outs, err := op.ComputeBatch(qe, time.Unix(60, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 76 {
		t.Fatalf("outputs = %d", len(outs))
	}
	res := op.LastResult()
	if res == nil {
		t.Fatal("no result retained")
	}
	if got := res.Model.NumActive(); got < 3 || got > 4 {
		t.Fatalf("clusters = %d, want 3 (maybe +1 for the outlier)", got)
	}
	// Group labels coherent: nodes 0-9 share a label, distinct from 10-19
	// and 20-29.
	labelOf := map[string]int{}
	for i, name := range res.Units {
		labelOf[string(name)] = res.Labels[i]
	}
	for g := 0; g < 3; g++ {
		ref := labelOf[fmt.Sprintf("/r1/n%02d/", g*25)]
		for i := 1; i < 25; i++ {
			if l := labelOf[fmt.Sprintf("/r1/n%02d/", g*25+i)]; l != ref {
				t.Errorf("group %d split: node %d label %d vs %d", g, i, l, ref)
			}
		}
	}
	if labelOf["/r1/n00/"] == labelOf["/r1/n25/"] || labelOf["/r1/n25/"] == labelOf["/r1/n50/"] {
		t.Error("distinct groups share a label")
	}
}

func TestOutlierFlagged(t *testing.T) {
	qe, op := newRig(t)
	if _, err := op.ComputeBatch(qe, time.Unix(60, 0)); err != nil {
		t.Fatal(err)
	}
	res := op.LastResult()
	found := false
	for i, name := range res.Units {
		if name == "/r1/n98/" && res.Labels[i] == OutlierLabel {
			found = true
		}
	}
	if !found {
		t.Errorf("outlier node not flagged; outliers=%d", res.Outliers)
	}
	// The bulk of the fleet is not outliers.
	if res.Outliers > 5 {
		t.Errorf("too many outliers: %d", res.Outliers)
	}
}

func TestLabelsPublishedAsSensors(t *testing.T) {
	qe, op := newRig(t)
	var labels []core.Output
	sink := core.SinkFunc(func(tp sensor.Topic, r sensor.Reading) {
		labels = append(labels, core.Output{Topic: tp, Reading: r})
	})
	if err := core.Tick(op, qe, sink, time.Unix(60, 0)); err != nil {
		t.Fatal(err)
	}
	if len(labels) != 76 {
		t.Fatalf("published labels = %d", len(labels))
	}
	if labels[0].Topic.Name() != "cluster-label" {
		t.Errorf("label topic = %q", labels[0].Topic)
	}
}

func TestInsufficientData(t *testing.T) {
	nav := navigator.New()
	caches := cache.NewSet()
	for i := 0; i < 4; i++ {
		topic := sensor.Topic(fmt.Sprintf("/r1/n%d/power", i))
		if err := nav.AddSensor(topic); err != nil {
			t.Fatal(err)
		}
		caches.GetOrCreate(topic, 4, time.Second) // empty
	}
	qe := core.NewQueryEngine(nav, caches, nil)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Inputs:  []string{"power"},
			Outputs: []string{"<bottomup>label"},
		},
	}
	op, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := op.ComputeBatch(qe, time.Unix(1, 0)); err == nil {
		t.Error("all-empty caches should error")
	}
}

func TestComputeSingleUnitDelegates(t *testing.T) {
	qe, op := newRig(t)
	u := op.Units()[0]
	outs, err := op.Compute(qe, u, time.Unix(60, 0), core.NewTickContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Topic.Node() != u.Name {
		t.Fatalf("outs = %+v", outs)
	}
}

func TestDefaultThreshold(t *testing.T) {
	qe, _ := newRig(t)
	cfg := Config{
		OperatorConfig: core.OperatorConfig{
			Inputs:  []string{"power"},
			Outputs: []string{"<bottomup>label"},
		},
	}
	op, err := New(cfg, qe)
	if err != nil {
		t.Fatal(err)
	}
	if op.threshold != 0.001 {
		t.Errorf("default threshold = %v, want 0.001 (paper)", op.threshold)
	}
	if !op.stdize {
		t.Error("standardisation should default to on")
	}
}
