package units

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/dcdb/wintermute/internal/navigator"
	"github.com/dcdb/wintermute/internal/sensor"
)

// paperTemplate is the exact pattern unit of the paper's §III-C example.
func paperTemplate(t testing.TB) *Template {
	t.Helper()
	tpl, err := NewTemplate(
		[]string{
			"<topdown+1>power",
			"<bottomup, filter cpu>cpu-cycles",
			"<bottomup, filter cpu>cache-misses",
		},
		[]string{"<bottomup-1>healthy"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

// TestPaperExampleResolution reproduces the resolution walked through in
// paper §III-C: binding the pattern unit to /r03/c02/s02/ must yield the
// exact sensors of Figure 2.
func TestPaperExampleResolution(t *testing.T) {
	nv := figure2Tree(t)
	tpl := paperTemplate(t)
	u, err := tpl.ResolveFor(nv, "/r03/c02/s02/")
	if err != nil {
		t.Fatal(err)
	}
	wantIn := []sensor.Topic{
		"/r03/c02/power",
		"/r03/c02/s02/cpu0/cpu-cycles",
		"/r03/c02/s02/cpu1/cpu-cycles",
		"/r03/c02/s02/cpu0/cache-misses",
		"/r03/c02/s02/cpu1/cache-misses",
	}
	if len(u.Inputs) != len(wantIn) {
		t.Fatalf("inputs = %v", u.Inputs)
	}
	got := map[sensor.Topic]bool{}
	for _, i := range u.Inputs {
		got[i] = true
	}
	for _, w := range wantIn {
		if !got[w] {
			t.Errorf("missing input %q; got %v", w, u.Inputs)
		}
	}
	if len(u.Outputs) != 1 || u.Outputs[0] != "/r03/c02/s02/healthy" {
		t.Errorf("outputs = %v", u.Outputs)
	}
	if u.Name != "/r03/c02/s02/" {
		t.Errorf("unit name = %q", u.Name)
	}
}

// TestResolveConcurrentAddSensor resolves a template whose inputs must
// already exist while another goroutine keeps adding sensors to the very
// nodes the pattern walks: the existence check has to read each node's
// sensors under the navigator lock (a data race under -race otherwise).
func TestResolveConcurrentAddSensor(t *testing.T) {
	nv := figure2Tree(t)
	tpl := paperTemplate(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			_ = nv.AddSensor(sensor.Topic(fmt.Sprintf("/r03/c02/s02/cpu%d/extra%d", i%2, i)))
		}
	}()
	for {
		u, err := tpl.ResolveFor(nv, "/r03/c02/s02/")
		if err != nil {
			t.Fatal(err)
		}
		if len(u.Inputs) != 5 {
			t.Fatalf("inputs = %v", u.Inputs)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// TestPaperExampleInstantiation: instantiating the same template over the
// whole tree must build exactly one unit — s02 — because the siblings
// s01/s03/s04 have no CPU sub-nodes and therefore "cannot be built".
func TestPaperExampleInstantiation(t *testing.T) {
	nv := figure2Tree(t)
	tpl := paperTemplate(t)
	us, err := tpl.Instantiate(nv)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 1 || us[0].Name != "/r03/c02/s02/" {
		t.Fatalf("units = %v", us)
	}
}

// TestInstantiateManyUnits checks large-scale instantiation: one config
// block producing one unit per compute node (paper §III-C's motivation).
func TestInstantiateManyUnits(t *testing.T) {
	nv := navigator.New()
	for r := 0; r < 4; r++ {
		for n := 0; n < 16; n++ {
			base := fmt.Sprintf("/r%02d/n%02d", r, n)
			for _, s := range []string{"power", "temp"} {
				if err := nv.AddSensor(sensor.Topic(base + "/" + s)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tpl, err := NewTemplate(
		[]string{"<bottomup>power", "<bottomup>temp"},
		[]string{"<bottomup>power-pred"},
	)
	if err != nil {
		t.Fatal(err)
	}
	us, err := tpl.Instantiate(nv)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 64 {
		t.Fatalf("units = %d, want 64", len(us))
	}
	// Deterministic, sorted order.
	for i := 1; i < len(us); i++ {
		if us[i].Name <= us[i-1].Name {
			t.Fatal("units not sorted by name")
		}
	}
	// Every unit has its own sensors.
	u := us[0]
	if u.Name != "/r00/n00/" || u.Outputs[0] != "/r00/n00/power-pred" {
		t.Errorf("unit[0] = %v", u)
	}
}

func TestResolveForUnknownNode(t *testing.T) {
	nv := figure2Tree(t)
	tpl := paperTemplate(t)
	if _, err := tpl.ResolveFor(nv, "/does/not/exist/"); err == nil {
		t.Error("unknown unit node should fail")
	}
}

func TestResolveMissingInput(t *testing.T) {
	nv := figure2Tree(t)
	tpl, err := NewTemplate([]string{"voltage"}, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tpl.ResolveFor(nv, "/r03/c02/s02/")
	if !errors.Is(err, ErrUnresolved) {
		t.Errorf("err = %v, want ErrUnresolved", err)
	}
}

func TestSameNodeOutputCreatesTopic(t *testing.T) {
	nv := figure2Tree(t)
	tpl, err := NewTemplate([]string{"memfree"}, []string{"mem-alarm"})
	if err != nil {
		t.Fatal(err)
	}
	u, err := tpl.ResolveFor(nv, "/r03/c02/s02/")
	if err != nil {
		t.Fatal(err)
	}
	if u.Outputs[0] != "/r03/c02/s02/mem-alarm" {
		t.Errorf("output = %v", u.Outputs)
	}
}

func TestAbsoluteInput(t *testing.T) {
	nv := figure2Tree(t)
	tpl, err := NewTemplate([]string{"/r03/inlet-temp"}, []string{"<bottomup-1>alarm"})
	if err != nil {
		t.Fatal(err)
	}
	us, err := tpl.Instantiate(nv)
	if err != nil {
		t.Fatal(err)
	}
	// All four server nodes get a unit; each reads the same absolute topic.
	if len(us) != 4 {
		t.Fatalf("units = %d, want 4", len(us))
	}
	for _, u := range us {
		if len(u.Inputs) != 1 || u.Inputs[0] != "/r03/inlet-temp" {
			t.Errorf("unit %v inputs = %v", u.Name, u.Inputs)
		}
	}
}

func TestRootFallbackUnit(t *testing.T) {
	nv := figure2Tree(t)
	// No level-anchored output: single root unit for operator-level output.
	tpl, err := NewTemplate([]string{"/r03/inlet-temp"}, []string{"avg-error"})
	if err != nil {
		t.Fatal(err)
	}
	us, err := tpl.Instantiate(nv)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 1 || us[0].Name != sensor.Root {
		t.Fatalf("units = %v", us)
	}
	if us[0].Outputs[0] != "/avg-error" {
		t.Errorf("output = %v", us[0].Outputs)
	}
}

func TestInstantiateEmptyDomain(t *testing.T) {
	nv := figure2Tree(t)
	tpl, err := NewTemplate([]string{"memfree"}, []string{"<bottomup-9>x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tpl.Instantiate(nv); err == nil {
		t.Error("empty unit domain should fail")
	}
}

func TestInstantiateNoOutputs(t *testing.T) {
	tpl := &Template{}
	if _, err := tpl.Instantiate(figure2Tree(t)); err == nil {
		t.Error("template without outputs should fail")
	}
}

func TestInstantiateFilterRestrictsUnits(t *testing.T) {
	nv := figure2Tree(t)
	tpl, err := NewTemplate(
		[]string{"memfree"},
		[]string{"<bottomup-1, filter ^s0[13]$>flag"},
	)
	if err != nil {
		t.Fatal(err)
	}
	us, err := tpl.Instantiate(nv)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 2 {
		t.Fatalf("units = %v", us)
	}
	if us[0].Name != "/r03/c02/s01/" || us[1].Name != "/r03/c02/s03/" {
		t.Errorf("unit names = %v, %v", us[0].Name, us[1].Name)
	}
}

func TestUnitString(t *testing.T) {
	u := &Unit{
		Name:    "/r1/n1/",
		Inputs:  []sensor.Topic{"/r1/n1/power"},
		Outputs: []sensor.Topic{"/r1/n1/pred"},
	}
	s := u.String()
	for _, want := range []string{"/r1/n1/", "/r1/n1/power", "/r1/n1/pred"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestNewTemplateErrors(t *testing.T) {
	if _, err := NewTemplate([]string{"<bad"}, []string{"x"}); err == nil {
		t.Error("bad input pattern should fail")
	}
	if _, err := NewTemplate([]string{"x"}, []string{"<bad"}); err == nil {
		t.Error("bad output pattern should fail")
	}
}
