// Command chaosrunner executes one chaos scenario (internal/chaos)
// against the real in-process pipeline and emits its JSON verdict.
//
// The exit status is the gate: 0 when the accounting is clean — zero
// lost readings, period (nothing acked-lost, nothing unacked-dropped),
// plus zero duplicates, phantoms, mismatches and a clean drain — 1
// otherwise. `make chaos` runs the full pre-merge configuration and
// merges the verdict into the per-PR BENCH_PR*.json; `make chaos-smoke`
// runs the seeded in-package smoke test under -race instead.
//
// Usage:
//
//	chaosrunner -pushers 1500 -topics 4 -rate 10 -duration 30s -out verdict.json
//
// With -merge <file> the verdict is additionally folded into an
// existing JSON report under a "chaos" key (the file is created when
// absent), which is how the per-PR BENCH_*.json artifacts carry both
// the benchmark pairs and the chaos verdict.
//
// A fixed -seed reproduces a run's fault dice exactly; 0 derives one
// from the wall clock and prints it in the verdict for replay.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/dcdb/wintermute/internal/chaos"
)

func main() {
	var (
		seed        = flag.Int64("seed", 0, "scenario seed (0 = derive from wall clock, reported in the verdict)")
		pushers     = flag.Int("pushers", 1000, "simulated pusher connections")
		topics      = flag.Int("topics", 4, "sensor topics per pusher")
		rate        = flag.Float64("rate", 5, "batches per topic per second")
		batch       = flag.Int("batch", 10, "readings per batch")
		duration    = flag.Duration("duration", 30*time.Second, "publish window")
		workers     = flag.Int("ingest-workers", 0, "agent ingest workers (0 = default)")
		queueCap    = flag.Int("queue-cap", 2, "agent ingest queue capacity (tiny = standing backpressure)")
		queryLoad   = flag.Int("query-workers", 4, "concurrent REST query workers")
		groupWindow = flag.Duration("group-window", 0, "WAL group-commit linger")
		dir         = flag.String("dir", "", "store directory (empty = temp)")
		out         = flag.String("out", "", "write the JSON verdict to this file (always printed to stdout)")
		merge       = flag.String("merge", "", "fold the verdict into this JSON report under a 'chaos' key")
	)
	flag.Parse()
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	v, err := chaos.Scenario{
		Seed:           *seed,
		Pushers:        *pushers,
		Topics:         *topics,
		Rate:           *rate,
		BatchSize:      *batch,
		Duration:       *duration,
		IngestWorkers:  *workers,
		IngestQueueCap: *queueCap,
		QueryWorkers:   *queryLoad,
		WALGroupWindow: *groupWindow,
		Dir:            *dir,
	}.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosrunner: %v\n", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosrunner: encoding verdict: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "chaosrunner: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if *merge != "" {
		if err := mergeVerdict(*merge, v); err != nil {
			fmt.Fprintf(os.Stderr, "chaosrunner: merging into %s: %v\n", *merge, err)
			os.Exit(1)
		}
	}
	if !v.Pass {
		fmt.Fprintf(os.Stderr, "chaosrunner: FAIL: %v\n", v.Failures)
		os.Exit(1)
	}
}

// mergeVerdict folds the verdict into an existing JSON report (usually
// the per-PR BENCH_*.json benchrunner artifact) under a "chaos" key,
// preserving every other key; a missing file starts a fresh report.
func mergeVerdict(path string, v *chaos.Verdict) error {
	report := map[string]any{}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &report); err != nil {
			return fmt.Errorf("existing report: %w", err)
		}
	case os.IsNotExist(err):
	default:
		return err
	}
	report["chaos"] = v
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
