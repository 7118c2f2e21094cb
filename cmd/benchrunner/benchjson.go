// benchjson implements `benchrunner -bench-json <file>`: it builds the
// repository's root test binary once, runs the acceptance benchmarks of
// bench_test.go for a fixed number of rounds, and writes the median and
// quartiles of every reported metric, plus each acceptance ratio computed
// from the medians, as JSON (the per-PR performance trajectory,
// BENCH_PR*.json). bench_test.go is the only definition of every
// workload; answer checks live there as set-up-time b.Fatal calls, so a
// wrong answer fails the round. The command exits non-zero when a round
// fails or any acceptance bound is missed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

const (
	// benchPkg is the package whose test binary holds the suite.
	benchPkg = "github.com/dcdb/wintermute"
	// benchRounds is how many times every benchmark runs. Each round is
	// one process running the whole list, so the two sides of a pair
	// run back to back and alternate across rounds.
	benchRounds = 5
)

// benchNames are the benchmarks every round runs: each acceptance pair
// plus the hot-path numbers the trajectory tracks.
var benchNames = []string{
	"QueryRelativeUnbound", "QueryRelativeBound",
	"TickComputeScratch", "TickAllQueryContentionBound",
	"BackendInsertBatchMemory", "BackendInsertBatchTSDB",
	"BackendRangeMemory", "BackendRangeTSDB",
	"StorageRecovery",
	"AggregateNaiveRange", "AggregateEngine",
	"DownsampleNaiveRange", "DownsampleEngine",
	"IngestConcurrentGrouped",
	"DashboardQueryUncached", "DashboardQueryCached",
	"WildcardExpandIndexed64", "WildcardExpandIndexed4096",
	"WildcardExpandLinear64", "WildcardExpandLinear4096",
	"IngestTelemetryOff", "IngestTelemetryOn",
	"DashboardTelemetryOff", "DashboardTelemetryOn",
	"PublishAcked",
}

// medianFunc looks up the median of one benchmark's metric (NaN when
// the benchmark did not report it).
type medianFunc func(bench, unit string) float64

// bound is one acceptance criterion over the per-benchmark medians.
type bound struct {
	name, expr string
	value      func(medianFunc) float64
	op         string // ">=", "<=" or "<" limit
	limit      float64
}

func metric(bench, unit string) func(medianFunc) float64 {
	return func(med medianFunc) float64 { return med(bench, unit) }
}

func ratio(num, den, unit string) func(medianFunc) float64 {
	return func(med medianFunc) float64 {
		n, d := med(num, unit), med(den, unit)
		if d == 0 {
			return n // an allocation-free side: report the other side's count
		}
		return n / d
	}
}

func overheadPct(off, on string) func(medianFunc) float64 {
	return func(med medianFunc) float64 {
		o := med(off, "ns/op")
		return (med(on, "ns/op") - o) / o * 100
	}
}

var bounds = []bound{
	{name: "aggregate_speedup", expr: "AggregateNaiveRange / AggregateEngine ns/op",
		value: ratio("BenchmarkAggregateNaiveRange", "BenchmarkAggregateEngine", "ns/op"), op: ">=", limit: 5},
	{name: "aggregate_alloc_ratio", expr: "AggregateNaiveRange / AggregateEngine allocs/op",
		value: ratio("BenchmarkAggregateNaiveRange", "BenchmarkAggregateEngine", "allocs/op"), op: ">=", limit: 10},
	{name: "dashboard_cached_speedup", expr: "DashboardQueryUncached / DashboardQueryCached ns/op",
		value: ratio("BenchmarkDashboardQueryUncached", "BenchmarkDashboardQueryCached", "ns/op"), op: ">=", limit: 5},
	{name: "wildcard_indexed_ratio", expr: "WildcardExpandIndexed4096 / WildcardExpandIndexed64 ns/op",
		value: ratio("BenchmarkWildcardExpandIndexed4096", "BenchmarkWildcardExpandIndexed64", "ns/op"), op: "<=", limit: 4},
	{name: "ingest_telemetry_overhead_pct", expr: "IngestTelemetryOn vs IngestTelemetryOff ns/op",
		value: overheadPct("BenchmarkIngestTelemetryOff", "BenchmarkIngestTelemetryOn"), op: "<=", limit: 2},
	{name: "dashboard_telemetry_overhead_pct", expr: "DashboardTelemetryOn vs DashboardTelemetryOff ns/op",
		value: overheadPct("BenchmarkDashboardTelemetryOff", "BenchmarkDashboardTelemetryOn"), op: "<=", limit: 2},
	{name: "storage_bytes_per_reading", expr: "StorageRecovery B/reading",
		value: metric("BenchmarkStorageRecovery", "B/reading"), op: "<", limit: 4},
}

// summary is one metric of one benchmark across every round.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

type benchSummary struct {
	Name    string              `json:"name"`
	Metrics map[string]*summary `json:"metrics"`
}

type acceptanceResult struct {
	Name  string  `json:"name"`
	Expr  string  `json:"expr"`
	Value float64 `json:"value"`
	Bound string  `json:"bound"`
	Pass  bool    `json:"pass"`
}

type benchReport struct {
	PR         int                `json:"pr"`
	Note       string             `json:"note"`
	Rounds     int                `json:"rounds"`
	CPU        string             `json:"cpu"`
	NumCPU     int                `json:"num_cpu"`
	GoVersion  string             `json:"go_version"`
	Benchmarks []benchSummary     `json:"benchmarks"`
	Acceptance []acceptanceResult `json:"acceptance"`
}

func runBenchJSON(path string) error {
	tmp, err := os.MkdirTemp("", "wintermute-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "bench.test")
	build := exec.Command("go", "test", "-c", "-o", bin, benchPkg)
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building the benchmark binary: %w", err)
	}
	pattern := "^Benchmark(" + strings.Join(benchNames, "|") + ")$"
	samples := map[string]map[string][]float64{}
	var cpu string
	for r := 1; r <= benchRounds; r++ {
		fmt.Printf("==> bench-json: round %d/%d\n", r, benchRounds)
		var out bytes.Buffer
		cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", pattern, "-test.benchmem")
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		c, err := parseBenchOutput(&out, samples)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		cpu = c
	}
	report := benchReport{
		PR: 13,
		Note: "bench_test.go acceptance benchmarks, median and quartiles over interleaved rounds; " +
			"answer checks (aggregate = naive, cached = uncached bytes, recovered answers identical, " +
			"clean spool drain) fail the round",
		Rounds:    benchRounds,
		CPU:       cpu,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	if missing := missingBenchmarks(samples); len(missing) > 0 {
		return fmt.Errorf("no results for %s", strings.Join(missing, ", "))
	}
	report.Benchmarks, err = summarize(samples, benchRounds)
	if err != nil {
		return err
	}
	if report.Acceptance, err = evaluate(report.Benchmarks); err != nil {
		return err
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("==> wrote %s\n", path)
	var missed []string
	for _, a := range report.Acceptance {
		verdict := "ok"
		if !a.Pass {
			verdict = "MISSED"
			missed = append(missed, a.Name)
		}
		fmt.Printf("  %-34s %10.2f  need %-6s %s\n", a.Name, a.Value, a.Bound, verdict)
	}
	if len(missed) > 0 {
		return fmt.Errorf("acceptance bounds missed: %s", strings.Join(missed, ", "))
	}
	return nil
}

// parseBenchOutput adds every metric of the standard benchmark result
// lines in r to samples (benchmark -> unit -> values) and returns the
// reported cpu.
func parseBenchOutput(r io.Reader, samples map[string]map[string][]float64) (cpu string, err error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if c, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = c
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // not a result line
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // GOMAXPROCS suffix
			}
		}
		if samples[name] == nil {
			samples[name] = map[string][]float64{}
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return cpu, fmt.Errorf("%s: bad %s value %q", name, f[i+1], f[i])
			}
			samples[name][f[i+1]] = append(samples[name][f[i+1]], v)
		}
	}
	return cpu, sc.Err()
}

// missingBenchmarks lists the benchNames without a result in samples
// (a renamed or deleted benchmark silently stops matching the pattern).
func missingBenchmarks(samples map[string]map[string][]float64) []string {
	var missing []string
	for _, n := range benchNames {
		found := false
		for name := range samples {
			found = found || name == "Benchmark"+n || strings.HasPrefix(name, "Benchmark"+n+"/")
		}
		if !found {
			missing = append(missing, "Benchmark"+n)
		}
	}
	return missing
}

// summarize reduces the samples to median and quartiles, failing when a
// metric was not reported in every round.
func summarize(samples map[string]map[string][]float64, rounds int) ([]benchSummary, error) {
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]benchSummary, 0, len(names))
	for _, name := range names {
		bs := benchSummary{Name: name, Metrics: map[string]*summary{}}
		for unit, vs := range samples[name] {
			if len(vs) != rounds {
				return nil, fmt.Errorf("%s %s: %d results for %d rounds", name, unit, len(vs), rounds)
			}
			sorted := append([]float64(nil), vs...)
			sort.Float64s(sorted)
			bs.Metrics[unit] = &summary{
				Median: quantile(sorted, 0.5),
				Q1:     quantile(sorted, 0.25),
				Q3:     quantile(sorted, 0.75),
				Runs:   vs,
			}
		}
		out = append(out, bs)
	}
	return out, nil
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// evaluate checks every bound against the medians; a bound whose metric
// was not reported is an error, not a miss.
func evaluate(bs []benchSummary) ([]acceptanceResult, error) {
	med := func(bench, unit string) float64 {
		for _, b := range bs {
			if s := b.Metrics[unit]; b.Name == bench && s != nil {
				return s.Median
			}
		}
		return math.NaN()
	}
	out := make([]acceptanceResult, 0, len(bounds))
	for _, bd := range bounds {
		v := bd.value(med)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: %s not reported", bd.name, bd.expr)
		}
		pass := v >= bd.limit
		switch bd.op {
		case "<=":
			pass = v <= bd.limit
		case "<":
			pass = v < bd.limit
		}
		out = append(out, acceptanceResult{
			Name:  bd.name,
			Expr:  bd.expr,
			Value: v,
			Bound: bd.op + strconv.FormatFloat(bd.limit, 'g', -1, 64),
			Pass:  pass,
		})
	}
	return out, nil
}
