// Command e2ebench is the repository's end-to-end benchmark. It starts
// the real monitoring stack in one process — a Collect Agent with a
// persistent tsdb, the REST API on loopback and spooled pusher-style
// transport clients, all configured like the daemons' defaults — and
// drives it with one seeded workload:
//
//	ingest     closed-loop publishing through transport → collect → tsdb
//	dashboard  1 Hz open-loop live stream plus 16 sliding dashboard panels
//	history    never-repeating reads of 12 h of flushed segments
//	analytics  simulated-clock ingest plus operator ticks (no broker, no HTTP)
//
// Every answer is checked. The run prints each metric by name with its
// unit and sample count, and as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around every call the benchmark makes into a layer
// and reports per-layer metrics instead, plus the tracing overhead.
//
// Usage (from the repository root; see run.sh):
//
//	e2ebench --workload ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	n          int    // samples behind the value (0: a single measurement)
	note       string // why a per-layer metric is absent or how it is derived
}

// e2eUnits are the end-to-end metrics every workload reports (see
// BENCHMARK.json). Each workload maps them onto its own primary
// operation; the per-workload names (with the medians) are printed
// beside them. The bounded latencies are the mean and p95: ingest
// freshness is bimodal at the seconds scale, so its median flips
// between modes from run to run while the mean holds steady, and the
// p99s (a dozen samples beyond them) move with the few flushes and GC
// cycles of a window more than any bound admits.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_mean_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"heap_peak_mb", "MB"},
	{"bytes_per_reading", "B"},
}

// report is what a workload run produces.
type report struct {
	attempted, failed int64
	e2e               map[string]metric
	named             []metric // per-workload names, printed only
	layer             map[string]metric
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) setE2E(name string, v float64, n int) {
	for _, u := range e2eUnits {
		if u.name == name {
			r.e2e[name] = metric{name: name, unit: u.unit, value: v, n: n}
			return
		}
	}
	panic("unknown end-to-end metric " + name)
}

func (r *report) addNamed(name, unit string, v float64, n int) {
	r.named = append(r.named, metric{name: name, unit: unit, value: v, n: n})
}

// setLayer records a per-layer metric; note explains an absent one.
func (r *report) setLayer(name string, v float64, n int, note string) {
	u, ok := layerUnits[name]
	if !ok {
		panic("unknown per-layer metric " + name)
	}
	r.layer[name] = metric{name: name, unit: u, value: v, n: n, note: note}
}

// runConfig parameterises one run.
type runConfig struct {
	seed     int64
	seconds  float64
	traced   bool
	root     string // scratch directory for databases
	sizes    sizes
	setups   int                 // set-ups per run; setup_s is their median
	corrupt  func([]byte) []byte // tests only: tamper with answers before checking
	spanFile string              // where a traced run writes its spans ("" skips)
}

// sizes are the workload dimensions; tests shrink them.
type sizes struct {
	nodes          int // nodes × 32 sensors in the topic space
	dashHistoryS   int // dashboard: seconds of history per topic loaded at set-up
	histNodes      int // history: nodes whose 32 sensors are loaded
	histSeconds    int // history: seconds per topic
	analyticsWarm  int // analytics: warm-up rounds
	regressorTrain int // analytics: regressor training-set size
}

var fullSizes = sizes{
	nodes:          148,
	dashHistoryS:   15 * 60,
	histNodes:      8,
	histSeconds:    12 * 3600,
	analyticsWarm:  40,
	regressorTrain: 148 * 24,
}

var workloads = map[string]func(runConfig) (*report, error){
	"ingest":    runIngest,
	"dashboard": runDashboard,
	"history":   runHistory,
	"analytics": runAnalytics,
}

func main() {
	var (
		wl      = flag.String("workload", "", "ingest, dashboard, history or analytics")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured window length")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*wl]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %v, trace %d)\n", *wl, *seconds, *trace)
		os.Exit(2)
	}
	root := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, traced: *trace == 1,
		root: root, sizes: fullSizes, setups: 3,
	}
	if cfg.traced {
		cfg.spanFile = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.tsv", *wl, *seed))
	}
	fmt.Printf("e2ebench: workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d\n",
		*wl, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := rep.finish(cfg.traced, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// finish prints every metric by name and returns the final JSON line.
func (r *report) finish(traced bool, w *os.File) (string, error) {
	fr := ratio(float64(r.failed), float64(r.attempted))
	for _, m := range r.named {
		fmt.Fprintf(w, "metric %-32s %14.6g %-10s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	fmt.Fprintf(w, "metric %-32s %14.6g %-10s n=%d\n", "failed_ratio", fr, "ratio", r.attempted)
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	emit := func(m metric) {
		fmt.Fprintf(w, "metric %-32s %14.6g %-10s n=%d", m.name, m.value, m.unit, m.n)
		if m.note != "" {
			fmt.Fprintf(w, "  (%s)", m.note)
		}
		fmt.Fprintln(w)
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = jm{Value: v, Unit: m.unit}
	}
	if traced {
		names := make([]string, 0, len(layerUnits))
		for n := range layerUnits {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m, ok := r.layer[n]
			if !ok {
				m = metric{name: n, unit: layerUnits[n], note: "not measured on this workload"}
			}
			emit(m)
		}
	} else {
		for _, u := range e2eUnits {
			m, ok := r.e2e[u.name]
			if !ok {
				return "", fmt.Errorf("workload did not report %s", u.name)
			}
			emit(m)
		}
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out}
	b, err := json.Marshal(res)
	return string(b), err
}
