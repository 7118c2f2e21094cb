package main

import (
	"strings"
	"testing"
)

// roundOutput is what one round prints for a few acceptance benchmarks,
// with the given ns/op on the telemetry-on side.
func roundOutput(dashOnNs string) string {
	return `goos: linux
cpu: Test CPU @ 1GHz
BenchmarkAggregateNaiveRange-2   	     100	   1000000 ns/op	  800000 B/op	     962 allocs/op
BenchmarkAggregateEngine-2       	   10000	      2000 ns/op	       0 B/op	       0 allocs/op
BenchmarkDashboardTelemetryOff-2 	   20000	     50000 ns/op	   29000 B/op	     237 allocs/op
BenchmarkDashboardTelemetryOn-2  	   20000	     ` + dashOnNs + ` ns/op	   29100 B/op	     240 allocs/op
BenchmarkStorageRecovery-2       	    3000	    400000 ns/op	         0.9337 B/reading	  112096 B/op	     971 allocs/op
BenchmarkIngestConcurrentGrouped/writers=8/sync=false-2 	  300000	      3500 ns/op	     120 B/op	       2 allocs/op
PASS
`
}

func TestBenchOutputToAcceptance(t *testing.T) {
	samples := map[string]map[string][]float64{}
	for _, on := range []string{"51000", "50500", "53000", "50800", "52000"} {
		cpu, err := parseBenchOutput(strings.NewReader(roundOutput(on)), samples)
		if err != nil {
			t.Fatal(err)
		}
		if cpu != "Test CPU @ 1GHz" {
			t.Fatalf("cpu = %q", cpu)
		}
	}
	if got := samples["BenchmarkStorageRecovery"]["B/reading"]; len(got) != 5 || got[0] != 0.9337 {
		t.Fatalf("custom metric samples = %v", got)
	}
	if _, ok := samples["BenchmarkIngestConcurrentGrouped/writers=8/sync=false"]; !ok {
		t.Fatal("sub-benchmark name not kept")
	}
	missing := strings.Join(missingBenchmarks(samples), " ")
	if !strings.Contains(missing, "BenchmarkPublishAcked") || strings.Contains(missing, "BenchmarkIngestConcurrentGrouped") {
		t.Fatalf("missing = %s", missing)
	}

	bs, err := summarize(samples, 5)
	if err != nil {
		t.Fatal(err)
	}
	med := func(bench, unit string) float64 {
		for _, b := range bs {
			if b.Name == bench {
				return b.Metrics[unit].Median
			}
		}
		t.Fatalf("%s not summarized", bench)
		return 0
	}
	for _, b := range bs {
		if on := b.Metrics["ns/op"]; b.Name == "BenchmarkDashboardTelemetryOn" && (on.Median != 51000 || on.Q1 != 50800 || on.Q3 != 52000) {
			t.Fatalf("summary = %+v", on)
		}
	}
	if v := overheadPct("BenchmarkDashboardTelemetryOff", "BenchmarkDashboardTelemetryOn")(med); v != 2 {
		t.Fatalf("overhead = %v, want 2", v)
	}
	// An allocation-free engine reports the naive side's count as the ratio.
	if v := ratio("BenchmarkAggregateNaiveRange", "BenchmarkAggregateEngine", "allocs/op")(med); v != 962 {
		t.Fatalf("alloc ratio = %v", v)
	}
	if _, err := evaluate(bs); err == nil {
		t.Fatal("a bound over a benchmark that never ran must be an error")
	}
}

func TestSummarizeRejectsMissingRound(t *testing.T) {
	samples := map[string]map[string][]float64{}
	for _, on := range []string{"51000", "52000"} {
		if _, err := parseBenchOutput(strings.NewReader(roundOutput(on)), samples); err != nil {
			t.Fatal(err)
		}
	}
	samples["BenchmarkAggregateEngine"]["ns/op"] = samples["BenchmarkAggregateEngine"]["ns/op"][:1]
	if _, err := summarize(samples, 2); err == nil {
		t.Fatal("a metric missing from a round must be an error")
	}
}
