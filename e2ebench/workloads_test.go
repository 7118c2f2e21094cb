package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinySizes shrink every workload to run in about a second.
var tinySizes = sizes{
	nodes:          8,
	dashHistoryS:   700, // the rack panels span 10 min
	histNodes:      2,
	histSeconds:    7 * 3600, // the downsamples span 6 h
	analyticsWarm:  30,
	regressorTrain: 8 * 20,
}

func tinyRun(t *testing.T, workload string, traced bool, corrupt func([]byte) []byte) *report {
	t.Helper()
	cfg := runConfig{
		seed: 5, seconds: 1, traced: traced, root: t.TempDir(),
		sizes: tinySizes, setups: 1, corrupt: corrupt,
	}
	rep, err := workloads[workload](cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// finishLine renders a report and decodes its JSON line.
func finishLine(t *testing.T, rep *report, traced bool) map[string]any {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	line, err := rep.finish(traced, out)
	if err != nil {
		t.Fatal(err)
	}
	var res map[string]any
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range []string{"ingest", "dashboard", "history"} {
		testWorkloadTiny(t, wl)
	}
}

func testWorkloadTiny(t *testing.T, wl string) {
	for _, traced := range []bool{false, true} {
		name := wl
		if traced {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) {
			rep := tinyRun(t, wl, traced, nil)
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("failed %d of %d", rep.failed, rep.attempted)
			}
			res := finishLine(t, rep, traced)
			if res["correct"] != true {
				t.Fatalf("correct = %v", res["correct"])
			}
			metrics := res["metrics"].(map[string]any)
			want := len(e2eUnits)
			if traced {
				want = len(layerUnits)
			}
			if len(metrics) != want {
				t.Fatalf("%d metrics, want %d", len(metrics), want)
			}
			if !traced {
				for _, u := range e2eUnits {
					if v := metrics[u.name].(map[string]any)["value"].(float64); v <= 0 {
						t.Errorf("%s = %v, want > 0", u.name, v)
					}
				}
			}
		})
	}
}

// flipDigit changes the first digit after the first "value" or
// "Value" key: a wrong number in an otherwise well-formed answer.
func flipDigit(body []byte) []byte {
	out := append([]byte(nil), body...)
	i := bytes.Index(bytes.ToLower(out), []byte(`"value":`))
	if i < 0 {
		return out
	}
	for j := i + len(`"value":`); j < len(out); j++ {
		if c := out[j]; c >= '0' && c <= '9' {
			out[j] = '0' + (c-'0'+1)%10
			break
		}
	}
	return out
}

func TestCorruptedAnswersCountAsFailed(t *testing.T) {
	for _, wl := range []string{"dashboard", "history"} {
		t.Run(wl, func(t *testing.T) {
			rep := tinyRun(t, wl, false, flipDigit)
			if rep.failed == 0 {
				t.Fatalf("no failure counted over %d operations with corrupted answers", rep.attempted)
			}
			if res := finishLine(t, rep, false); res["correct"] != false {
				t.Fatal("a run with failures reported correct")
			}
		})
	}
}

func TestFlipDigit(t *testing.T) {
	got := string(flipDigit([]byte(`{"readings":[{"Value":12.5,"Time":3}]}`)))
	if !strings.Contains(got, `"Value":22.5`) {
		t.Fatalf("flipDigit: %s", got)
	}
}

// TestAnalyticsTiny runs last: it can kill the test binary with the
// navigator's concurrent map access (see WORKLOADS.md), and the other
// tests should have reported by then.
func TestAnalyticsTiny(t *testing.T) { testWorkloadTiny(t, "analytics") }
