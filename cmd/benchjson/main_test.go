package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R)
BenchmarkRegionSharded_1-4         	       1	5701234567 ns/op	  123456 B/op	     789 allocs/op	         1.000 shards	      3508 req/s
BenchmarkRegionSharded_16-4        	       2	 660123456 ns/op	   65432 B/op	     321 allocs/op	        16.00 shards	     30303 req/s
BenchmarkFigure3_Policy2           	       1	3210987654 ns/op
PASS
ok  	repro	12.345s
`

func TestParseBenchOutput(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	// The -4 GOMAXPROCS suffix must be stripped; the suffix-free name kept.
	sharded, ok := f.Benchmarks["BenchmarkRegionSharded_1"]
	if !ok {
		t.Fatalf("missing suffix-stripped BenchmarkRegionSharded_1: %+v", f.Benchmarks)
	}
	if got := sharded.NsPerOp(); got != 5701234567 {
		t.Fatalf("ns/op = %v, want 5701234567", got)
	}
	if got := sharded["B/op"]; got != 123456 {
		t.Fatalf("B/op = %v, want 123456", got)
	}
	if got := sharded["allocs/op"]; got != 789 {
		t.Fatalf("allocs/op = %v, want 789", got)
	}
	if got := sharded["req/s"]; got != 3508 {
		t.Fatalf("req/s = %v, want 3508", got)
	}
	if got := f.Benchmarks["BenchmarkFigure3_Policy2"].NsPerOp(); got != 3210987654 {
		t.Fatalf("plain-line ns/op = %v, want 3210987654", got)
	}
}

// TestParseRecordsCoreCount checks that parse stores the host's CPU count
// and the benchmarks' GOMAXPROCS, read from the name suffix (1 without one).
func TestParseRecordsCoreCount(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.NProc != runtime.NumCPU() || f.GOMAXPROCS != 4 {
		t.Fatalf("nproc=%d gomaxprocs=%d, want %d and 4", f.NProc, f.GOMAXPROCS, runtime.NumCPU())
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"nproc"`) || !strings.Contains(buf.String(), `"gomaxprocs": 4`) {
		t.Fatalf("core count missing from the JSON:\n%s", buf.String())
	}
	single, err := Parse(strings.NewReader("BenchmarkMixPick   \t1\t40 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if single.GOMAXPROCS != 1 {
		t.Fatalf("suffix-free names: gomaxprocs=%d, want 1", single.GOMAXPROCS)
	}
}

// TestCompareWarnsOnCoreCount checks that compare only warns about core
// counts: when the baseline has none or the counts differ, never when they
// match, and that the warning leaves the gate's verdict alone.
func TestCompareWarnsOnCoreCount(t *testing.T) {
	bench := map[string]Metrics{"BenchmarkA": {"ns/op": 100}}
	current := &File{NProc: 2, GOMAXPROCS: 2, Benchmarks: bench}
	for _, tc := range []struct {
		name         string
		nproc, procs int
		wantWarning  bool
	}{
		{"no core count", 0, 0, true},
		{"nproc differs", 4, 2, true},
		{"gomaxprocs differs", 2, 1, true},
		{"same", 2, 2, false},
	} {
		baseline := &File{NProc: tc.nproc, GOMAXPROCS: tc.procs, Benchmarks: bench}
		if got := coreCountWarning(baseline, current); (got != "") != tc.wantWarning {
			t.Errorf("%s: warning %q, want one: %v", tc.name, got, tc.wantWarning)
		}
		if regs, missing := Compare(baseline, current, 0.2, 0.25); len(regs) != 0 || len(missing) != 0 {
			t.Errorf("%s: the core count moved the verdict: %v %v", tc.name, regs, missing)
		}
	}
}

func TestParseTakesMedianOverCount(t *testing.T) {
	const counted = `BenchmarkFigure3_Policy2-2   	1	300 ns/op	10 B/op	1 allocs/op
BenchmarkFigure3_Policy2-2   	1	900 ns/op	30 B/op	3 allocs/op
BenchmarkFigure3_Policy2-2   	1	100 ns/op	20 B/op	2 allocs/op
BenchmarkMixPick-2           	1	40 ns/op
BenchmarkMixPick-2           	1	10 ns/op
`
	f, err := Parse(strings.NewReader(counted))
	if err != nil {
		t.Fatal(err)
	}
	fig := f.Benchmarks["BenchmarkFigure3_Policy2"]
	if fig.NsPerOp() != 300 || fig["B/op"] != 20 || fig["allocs/op"] != 2 {
		t.Fatalf("odd count: got %+v, want the per-unit medians 300 ns/op, 20 B/op, 2 allocs/op", fig)
	}
	if got := f.Benchmarks["BenchmarkMixPick"].NsPerOp(); got != 25 {
		t.Fatalf("even count: ns/op = %v, want the mean of the two middle samples, 25", got)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok repro 1.0s\n")); err == nil {
		t.Fatal("empty benchmark output must be an error, not an empty gate")
	}
}

func TestWriteRoundTrips(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back File
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Benchmarks) != len(f.Benchmarks) {
		t.Fatalf("round trip lost benchmarks: %d != %d", len(back.Benchmarks), len(f.Benchmarks))
	}
}

func mkFile(ns map[string]float64) *File {
	f := &File{Benchmarks: map[string]Metrics{}}
	for name, v := range ns {
		f.Benchmarks[name] = Metrics{"ns/op": v}
	}
	return f
}

func TestCompareFlagsOnlyRealRegressions(t *testing.T) {
	baseline := mkFile(map[string]float64{"A": 1000, "B": 1000, "C": 1000})
	current := mkFile(map[string]float64{"A": 1100, "B": 1300, "C": 900, "New": 5000})

	regressions, missing := Compare(baseline, current, 0.20, 0.25)
	if len(missing) != 0 {
		t.Fatalf("unexpected missing: %v", missing)
	}
	if len(regressions) != 1 || regressions[0].Name != "B" || regressions[0].Metric != "ns/op" {
		t.Fatalf("want exactly B's ns/op flagged (+30%% > 20%% tolerance), got %+v", regressions)
	}
	if d := regressions[0].Delta; d < 0.29 || d > 0.31 {
		t.Fatalf("B delta = %v, want ~0.30", d)
	}
}

func TestCompareReportsMissingBenchmarks(t *testing.T) {
	baseline := mkFile(map[string]float64{"A": 1000, "Gone": 1000})
	current := mkFile(map[string]float64{"A": 1000})
	regressions, missing := Compare(baseline, current, 0.20, 0.25)
	if len(regressions) != 0 {
		t.Fatalf("unexpected regressions: %+v", regressions)
	}
	if len(missing) != 1 || missing[0] != "Gone" {
		t.Fatalf("want [Gone] missing, got %v", missing)
	}
}

func TestCompareGatesMemoryMetrics(t *testing.T) {
	baseline := &File{Benchmarks: map[string]Metrics{
		"A": {"ns/op": 1000, "B/op": 1000, "allocs/op": 100},
		"B": {"ns/op": 1000, "B/op": 1000, "allocs/op": 100},
	}}
	current := &File{Benchmarks: map[string]Metrics{
		// ns/op inside 20%, B/op +50% (beyond the 25% mem tolerance).
		"A": {"ns/op": 1100, "B/op": 1500, "allocs/op": 100},
		// allocs/op +30%, B/op inside tolerance.
		"B": {"ns/op": 900, "B/op": 1100, "allocs/op": 130},
	}}
	regressions, missing := Compare(baseline, current, 0.20, 0.25)
	if len(missing) != 0 {
		t.Fatalf("unexpected missing: %v", missing)
	}
	if len(regressions) != 2 {
		t.Fatalf("want exactly A's B/op and B's allocs/op flagged, got %+v", regressions)
	}
	if regressions[0].Name != "A" || regressions[0].Metric != "B/op" {
		t.Fatalf("first regression = %+v, want A B/op", regressions[0])
	}
	if regressions[1].Name != "B" || regressions[1].Metric != "allocs/op" {
		t.Fatalf("second regression = %+v, want B allocs/op", regressions[1])
	}
}

func TestCompareSkipsAbsentMemoryMetrics(t *testing.T) {
	// Baselines recorded before -benchmem carry no B/op: the gate must not
	// fail on the missing metric, only on what both sides recorded.
	baseline := mkFile(map[string]float64{"A": 1000})
	current := &File{Benchmarks: map[string]Metrics{
		"A": {"ns/op": 1000, "B/op": 999999, "allocs/op": 999999},
	}}
	regressions, missing := Compare(baseline, current, 0.20, 0.25)
	if len(regressions) != 0 || len(missing) != 0 {
		t.Fatalf("absent baseline mem metrics must be skipped, got regressions=%+v missing=%v", regressions, missing)
	}
}

func TestCompareAnnotatesDeltaPct(t *testing.T) {
	baseline := &File{Benchmarks: map[string]Metrics{
		"A": {"ns/op": 1000, "B/op": 200, "allocs/op": 100},
	}}
	current := &File{Benchmarks: map[string]Metrics{
		"A": {"ns/op": 1100, "B/op": 100, "allocs/op": 100},
	}}
	Compare(baseline, current, 0.20, 0.25)
	dp, ok := current.DeltaPct["A"]
	if !ok {
		t.Fatalf("delta_pct not annotated: %+v", current.DeltaPct)
	}
	if got := dp["ns/op"]; got < 9.9 || got > 10.1 {
		t.Fatalf("delta_pct ns/op = %v, want ~10", got)
	}
	if got := dp["B/op"]; got < -50.1 || got > -49.9 {
		t.Fatalf("delta_pct B/op = %v, want ~-50", got)
	}
	if got := dp["allocs/op"]; got != 0 {
		t.Fatalf("delta_pct allocs/op = %v, want 0", got)
	}
	// The annotation must survive the JSON round trip the -annotate flag
	// performs, so the artifact is self-describing.
	var buf bytes.Buffer
	if err := current.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back File
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.DeltaPct["A"]["ns/op"] != dp["ns/op"] {
		t.Fatalf("delta_pct lost in round trip: %+v", back.DeltaPct)
	}
}

// TestCompareMissingBaselinePointsAtProcedure: a missing baseline file must
// produce the recording instruction, not a bare file-not-found.
func TestCompareMissingBaselinePointsAtProcedure(t *testing.T) {
	err := runCompare([]string{"-baseline", "testdata-does-not-exist/BENCH_baseline.json"})
	if err == nil {
		t.Fatal("expected an error for a missing baseline")
	}
	for _, want := range []string{"baseline", "missing", "make bench-baseline"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}
