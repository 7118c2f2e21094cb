package navigator

import (
	"fmt"
	"regexp"
	"testing"
	"testing/quick"

	"github.com/dcdb/wintermute/internal/sensor"
)

// paperTree builds the example tree of the paper's Figure 2:
// racks r01..r04, chassis c01..c03 under r03, servers s01..s04 under c02,
// cpus cpu0/cpu1 under s02, with the sensors shown in the figure.
func paperTree(t testing.TB) *Navigator {
	t.Helper()
	nv := New()
	topics := []sensor.Topic{
		"/db-uptime", "/time-to-live",
		"/r03/inlet-temp",
		"/r03/c02/power",
		"/r03/c02/s02/memfree", "/r03/c02/s02/healthy",
		"/r03/c02/s02/cpu0/cache-misses", "/r03/c02/s02/cpu0/cpu-cycles",
		"/r03/c02/s02/cpu1/cache-misses", "/r03/c02/s02/cpu1/cpu-cycles",
	}
	for _, r := range []string{"r01", "r02", "r04"} {
		topics = append(topics, sensor.Topic("/"+r+"/inlet-temp"))
	}
	for _, c := range []string{"c01", "c03"} {
		topics = append(topics, sensor.Topic("/r03/"+c+"/power"))
	}
	for _, s := range []string{"s01", "s03", "s04"} {
		topics = append(topics, sensor.Topic("/r03/c02/"+s+"/memfree"))
	}
	if err := nv.AddSensors(topics); err != nil {
		t.Fatal(err)
	}
	return nv
}

func TestAddAndResolve(t *testing.T) {
	nv := paperTree(t)
	n, ok := nv.Resolve("/r03/c02/s02/")
	if !ok {
		t.Fatal("node /r03/c02/s02/ not found")
	}
	if n.Depth() != 3 || n.Name() != "s02" {
		t.Fatalf("depth/name = %d/%q", n.Depth(), n.Name())
	}
	// Resolve tolerates missing trailing slash.
	if _, ok := nv.Resolve("/r03/c02/s02"); !ok {
		t.Error("Resolve should normalise to node form")
	}
	if _, ok := nv.Resolve("/nope/"); ok {
		t.Error("unknown path resolved")
	}
}

func TestAddSensorIdempotent(t *testing.T) {
	nv := New()
	for i := 0; i < 3; i++ {
		if err := nv.AddSensor("/r1/n1/power"); err != nil {
			t.Fatal(err)
		}
	}
	if nv.NumSensors() != 1 {
		t.Fatalf("NumSensors = %d, want 1", nv.NumSensors())
	}
}

func TestAddSensorErrors(t *testing.T) {
	nv := New()
	if err := nv.AddSensor("/"); err == nil {
		t.Error("adding root as sensor should fail")
	}
	if err := nv.AddSensor("/a b/c"); err == nil {
		t.Error("whitespace segment should fail")
	}
}

func TestMaxDepthAndSensorCount(t *testing.T) {
	nv := paperTree(t)
	if nv.MaxDepth() != 4 {
		t.Errorf("MaxDepth = %d, want 4 (cpu level)", nv.MaxDepth())
	}
	if nv.NumSensors() != 18 {
		t.Errorf("NumSensors = %d, want 18", nv.NumSensors())
	}
}

func TestNodesAtDepth(t *testing.T) {
	nv := paperTree(t)
	racks := nv.NodesAtDepth(1)
	if len(racks) != 4 {
		t.Fatalf("racks = %d, want 4", len(racks))
	}
	if racks[0].Name() != "r01" || racks[3].Name() != "r04" {
		t.Errorf("racks not sorted: %v, %v", racks[0].Name(), racks[3].Name())
	}
	cpus := nv.NodesAtDepth(4)
	if len(cpus) != 2 {
		t.Fatalf("cpus = %d, want 2", len(cpus))
	}
	if nv.NodesAtDepth(0)[0].Path() != sensor.Root {
		t.Error("depth 0 should be the root")
	}
	if nv.NodesAtDepth(99) != nil || nv.NodesAtDepth(-1) != nil {
		t.Error("out-of-range depths should return nil")
	}
}

func TestNodesAtDepthFiltered(t *testing.T) {
	nv := paperTree(t)
	re := regexp.MustCompile(`^cpu`)
	cpus := nv.NodesAtDepthFiltered(4, re)
	if len(cpus) != 2 {
		t.Fatalf("filtered cpus = %d, want 2", len(cpus))
	}
	none := nv.NodesAtDepthFiltered(4, regexp.MustCompile(`^gpu`))
	if len(none) != 0 {
		t.Fatalf("filter should exclude all: %d", len(none))
	}
	all := nv.NodesAtDepthFiltered(1, nil)
	if len(all) != 4 {
		t.Fatalf("nil filter should accept all racks: %d", len(all))
	}
}

func TestNodeSensors(t *testing.T) {
	nv := paperTree(t)
	n, _ := nv.Resolve("/r03/c02/s02/")
	ss := n.Sensors()
	if len(ss) != 2 {
		t.Fatalf("sensors = %v", ss)
	}
	if ss[0] != "/r03/c02/s02/healthy" || ss[1] != "/r03/c02/s02/memfree" {
		t.Errorf("sensor order/content wrong: %v", ss)
	}
	if topic, ok := n.Sensor("memfree"); !ok || topic != "/r03/c02/s02/memfree" {
		t.Errorf("Sensor lookup = %q, %v", topic, ok)
	}
	if _, ok := n.Sensor("nope"); ok {
		t.Error("missing sensor lookup should fail")
	}
}

func TestHasSensor(t *testing.T) {
	nv := paperTree(t)
	if !nv.HasSensor("/r03/c02/power") {
		t.Error("power sensor should exist")
	}
	if nv.HasSensor("/r03/c02/voltage") {
		t.Error("voltage sensor should not exist")
	}
	if nv.HasSensor("/x/y/z") {
		t.Error("sensor under unknown node should not exist")
	}
}

func TestRelated(t *testing.T) {
	nv := paperTree(t)
	rack, _ := nv.Resolve("/r03/")
	node, _ := nv.Resolve("/r03/c02/s02/")
	cpu, _ := nv.Resolve("/r03/c02/s02/cpu0/")
	other, _ := nv.Resolve("/r01/")
	if !Related(rack, node) || !Related(node, rack) {
		t.Error("rack and node should be related")
	}
	if !Related(node, cpu) {
		t.Error("node and its cpu should be related")
	}
	if Related(other, node) {
		t.Error("different racks are unrelated")
	}
	if !Related(node, node) {
		t.Error("a node is related to itself")
	}
	if Related(nil, node) || Related(node, nil) {
		t.Error("nil nodes are never related")
	}
}

func TestRelatedAtDepth(t *testing.T) {
	nv := paperTree(t)
	node, _ := nv.Resolve("/r03/c02/s02/")
	// Same depth: the node itself.
	got := nv.RelatedAtDepth(node, 3, nil)
	if len(got) != 1 || got[0] != node {
		t.Fatalf("same depth = %v", got)
	}
	// Above: the unique ancestor.
	got = nv.RelatedAtDepth(node, 1, nil)
	if len(got) != 1 || got[0].Path() != "/r03/" {
		t.Fatalf("ancestor = %v", got)
	}
	// Below: the descendants.
	got = nv.RelatedAtDepth(node, 4, nil)
	if len(got) != 2 {
		t.Fatalf("descendants = %v", got)
	}
	// Filter applies at every position.
	got = nv.RelatedAtDepth(node, 4, regexp.MustCompile(`^cpu1$`))
	if len(got) != 1 || got[0].Name() != "cpu1" {
		t.Fatalf("filtered descendants = %v", got)
	}
	if nv.RelatedAtDepth(node, 1, regexp.MustCompile(`^r99$`)) != nil {
		t.Error("non-matching ancestor should yield nil")
	}
	if nv.RelatedAtDepth(nil, 1, nil) != nil {
		t.Error("nil node should yield nil")
	}
	// Agreement with the level-scan definition on every (node, depth).
	for d := 0; d <= nv.MaxDepth(); d++ {
		level := nv.NodesAtDepth(d)
		for _, n := range nv.Subtree(nv.Root()) {
			fast := nv.RelatedAtDepth(n, d, nil)
			var slow []*Node
			for _, x := range level {
				if Related(n, x) {
					slow = append(slow, x)
				}
			}
			if len(fast) != len(slow) {
				t.Fatalf("mismatch at node %s depth %d: %d vs %d", n.Path(), d, len(fast), len(slow))
			}
		}
	}
}

func TestSubtreeAndSensorsBelow(t *testing.T) {
	nv := paperTree(t)
	n, _ := nv.Resolve("/r03/c02/s02/")
	sub := nv.Subtree(n)
	if len(sub) != 3 { // s02, cpu0, cpu1
		t.Fatalf("subtree size = %d, want 3", len(sub))
	}
	below := nv.SensorsBelow("/r03/c02/s02/")
	if len(below) != 6 {
		t.Fatalf("sensors below = %d, want 6: %v", len(below), below)
	}
	if nv.SensorsBelow("/none/") != nil {
		t.Error("unknown path should yield nil")
	}
}

// TestSensorsBelowConcurrentAdd walks a subtree while sensors are added
// to it: the walk must not iterate a node's sensor map while AddSensor
// writes it (a fatal runtime error without the race detector, a report
// with it).
func TestSensorsBelowConcurrentAdd(t *testing.T) {
	nv := New()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			_ = nv.AddSensor(sensor.Topic(fmt.Sprintf("/r01/n%02d/s%d", i%4, i)))
		}
	}()
	for {
		select {
		case <-done:
			if got := len(nv.SensorsBelow("/r01/")); got != 2000 {
				t.Fatalf("sensors below = %d, want 2000", got)
			}
			return
		default:
			nv.SensorsBelow("/r01/")
		}
	}
}

func TestAllSensors(t *testing.T) {
	nv := paperTree(t)
	all := nv.AllSensors()
	if len(all) != nv.NumSensors() {
		t.Fatalf("AllSensors = %d, NumSensors = %d", len(all), nv.NumSensors())
	}
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Fatalf("AllSensors not strictly sorted at %d", i)
		}
	}
}

func TestLevel(t *testing.T) {
	nv := paperTree(t) // MaxDepth 4
	if nv.Level(true, 0) != 1 {
		t.Error("topdown should be depth 1")
	}
	if nv.Level(true, 2) != 3 {
		t.Error("topdown+2 should be depth 3")
	}
	if nv.Level(false, 0) != 4 {
		t.Error("bottomup should be MaxDepth")
	}
	if nv.Level(false, 1) != 3 {
		t.Error("bottomup-1 should be MaxDepth-1")
	}
}

// TestDepthInvariant: every node's depth equals its path depth, for
// arbitrary synthetic trees.
func TestDepthInvariant(t *testing.T) {
	f := func(racks, nodes uint8) bool {
		nr := int(racks%5) + 1
		nn := int(nodes%5) + 1
		nv := New()
		for r := 0; r < nr; r++ {
			for n := 0; n < nn; n++ {
				topic := sensor.Topic(fmt.Sprintf("/r%d/n%d/power", r, n))
				if err := nv.AddSensor(topic); err != nil {
					return false
				}
			}
		}
		for d := 0; d <= nv.MaxDepth(); d++ {
			for _, node := range nv.NodesAtDepth(d) {
				if node.Depth() != node.Path().Depth() {
					return false
				}
			}
		}
		return len(nv.NodesAtDepth(1)) == nr && len(nv.NodesAtDepth(2)) == nr*nn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChildrenSorted(t *testing.T) {
	nv := New()
	for _, r := range []string{"r3", "r1", "r2"} {
		if err := nv.AddSensor(sensor.Topic("/" + r + "/power")); err != nil {
			t.Fatal(err)
		}
	}
	kids := nv.Root().Children()
	if kids[0].Name() != "r1" || kids[1].Name() != "r2" || kids[2].Name() != "r3" {
		t.Errorf("children not sorted: %v %v %v", kids[0].Name(), kids[1].Name(), kids[2].Name())
	}
}
