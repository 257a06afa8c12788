package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/simclock"
	"repro/internal/tracing"
)

// The observability-plane suite: the global-traced scenario samples 2% of
// every stream's requests into the span layer and runs the engine flight
// recorder, and the exported Chrome trace must be byte-identical for
// EventWorkers {0, 1, 4, GOMAXPROCS} — the trace set is a pure function of
// (seed, stream, request ID) and the flight records are sim-time accounting
// written at epoch barriers, so neither may depend on scheduling.  The
// golden pins the SHA-256 of the export, extending the byte contract from
// summaries and series to the traces themselves.

// runTraced runs global-traced at the given worker count and returns the
// Chrome trace-event export plus the artifacts it came from.
func runTraced(t *testing.T, workers int, horizon simclock.Duration) ([]byte, *tracing.Tracer, *simclock.FlightRecorder) {
	t.Helper()
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScenario("global-traced", 42)
	if err != nil {
		t.Fatal(err)
	}
	sc.Horizon = horizon
	sc.EventWorkers = workers
	_, b, err := RunBackend(sc, np)
	if err != nil {
		t.Fatal(err)
	}
	tr, fr := TraceArtifacts(b)
	if tr == nil {
		t.Fatal("global-traced backend has no tracer")
	}
	if fr == nil {
		t.Fatal("global-traced backend has no flight recorder")
	}
	var buf bytes.Buffer
	if err := tracing.WriteChrome(&buf, tr.Traces(), fr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tr, fr
}

// TestGlobalTracedExport: always-on canary — the scenario collects sealed
// traces, the export is valid Chrome trace-event JSON, the flight recorder
// reports per-shard utilization for every lane, and the breakdown table has
// rows.  Five minutes crosses ramp-up, probe ticks and several VMC ticks.
func TestGlobalTracedExport(t *testing.T) {
	out, tr, fr := runTraced(t, 1, 5*simclock.Minute)

	if tr.Len() == 0 {
		t.Fatal("no traces collected")
	}
	traces := tr.Traces()
	sealed := 0
	for _, rt := range traces {
		if rt.Sealed {
			sealed++
		}
	}
	if sealed == 0 {
		t.Fatal("no trace was sealed by a completion")
	}

	var parsed struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
			TS    float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out, &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", parsed.DisplayTimeUnit)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("export has no trace events")
	}
	names := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{tracing.SpanRequest, tracing.EventGSLBRoute, tracing.SpanService, "epoch"} {
		if !names[want] {
			t.Errorf("export has no %q events", want)
		}
	}

	// Three 2-shard regions = 6 shard lanes + the control lane.
	util := fr.Utilization()
	if len(util) != 7 {
		t.Fatalf("flight recorder tracks %d lanes, want 7", len(util))
	}
	if fr.EpochCount() == 0 {
		t.Fatal("flight recorder saw no epochs")
	}
	busyLanes := 0
	for _, u := range util[:6] {
		if u.Busy > 0 {
			busyLanes++
		}
	}
	if busyLanes == 0 {
		t.Fatal("no shard lane recorded busy time")
	}
	if len(fr.Phases()) == 0 {
		t.Fatal("no control-tick phases recorded")
	}

	table := tracing.BreakdownTable(traces)
	if !strings.Contains(table, tracing.SpanRequest) || !strings.Contains(table, tracing.SpanService) {
		t.Fatalf("breakdown table is missing lifecycle rows:\n%s", table)
	}
}

// TestGlobalTracedExemplars: the sampled trace IDs surface as exemplars on
// the workload latency histogram in the instrument registry — the link from
// the metrics plane into the trace view.
func TestGlobalTracedExemplars(t *testing.T) {
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScenario("global-traced", 42)
	if err != nil {
		t.Fatal(err)
	}
	sc.Horizon = 5 * simclock.Minute
	_, b, err := RunBackend(sc, np)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `trace_id="`) {
		t.Fatal("workload_response_time_seconds buckets carry no trace_id exemplar")
	}
	if !strings.Contains(text, "workload_response_time_seconds_bucket") {
		t.Fatal("latency histogram missing from exposition")
	}
}

// TestGlobalTracedWorkersEquivalence is the tracing determinism contract:
// the full Chrome trace export — every span, timestamp, flight-recorder
// slice and phase instant — is byte-identical across EventWorkers 0, 1, 4
// and GOMAXPROCS, and its SHA-256 matches the pinned golden.  Regenerate
// with -update after an intentional change to the trace format or the
// request path.
func TestGlobalTracedWorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs global-traced once per worker count")
	}
	counts := []int{0, 1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	ref, _, _ := runTraced(t, counts[0], 10*simclock.Minute)
	for _, workers := range counts[1:] {
		got, _, _ := runTraced(t, workers, 10*simclock.Minute)
		if !bytes.Equal(got, ref) {
			t.Fatalf("EventWorkers=%d trace export diverged from EventWorkers=%d (lens %d vs %d)",
				workers, counts[0], len(got), len(ref))
		}
	}

	sum := sha256.Sum256(ref)
	got := hex.EncodeToString(sum[:]) + "\n"
	path := filepath.Join("testdata", "golden", "global-traced-trace.sha256")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing trace golden (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Fatalf("trace export drifted from golden %s\ngot  %swant %s", path, got, want)
	}
}

// TestTracingOffIsByteInvisible: the same scenario with tracing and the
// flight recorder disabled must produce exactly the bytes of its parent
// global-latency configuration path — i.e. a traced run and an untraced run
// of the same deployment agree on every summary and series.  This is the
// "goldens keep their bytes with tracing off" guarantee stated positively:
// tracing on/off only adds or removes trace output, never simulation
// behaviour.
func TestTracingOffIsByteInvisible(t *testing.T) {
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(sample float64, flight bool) []byte {
		sc, err := BuildScenario("global-traced", 42)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = 5 * simclock.Minute
		sc.TraceSampleFraction = sample
		sc.FlightRecorder = flight
		res, err := Run(sc, np)
		if err != nil {
			t.Fatal(err)
		}
		return eventLoopFingerprint(t, res)
	}
	traced := run(0.02, true)
	untraced := run(0, false)
	if !bytes.Equal(traced, untraced) {
		t.Fatalf("tracing changed the simulation bytes\n--- traced ---\n%s\n--- untraced ---\n%s", traced, untraced)
	}
}

// TestFlightRecorderOnFigure3: the paper's own scenario at its default
// EventWorkers 0 runs on the event loop, so the flight recorder accepts it,
// records its epochs and control-tick phases, and leaves its bytes alone.
func TestFlightRecorderOnFigure3(t *testing.T) {
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(flight bool) ([]byte, *simclock.FlightRecorder) {
		sc, err := BuildScenario("figure3", 42)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = 5 * simclock.Minute
		sc.FlightRecorder = flight
		res, b, err := RunBackend(sc, np)
		if err != nil {
			t.Fatal(err)
		}
		_, fr := TraceArtifacts(b)
		return eventLoopFingerprint(t, res), fr
	}
	recorded, fr := run(true)
	if fr == nil || fr.EpochCount() == 0 || len(fr.Phases()) == 0 {
		t.Fatalf("figure3 flight recorder recorded nothing: %+v", fr)
	}
	if lanes := len(fr.Utilization()); lanes != 3 {
		t.Fatalf("figure3 flight recorder covers %d lanes, want one per region plus the control timeline (3)", lanes)
	}
	if plain, _ := run(false); !bytes.Equal(recorded, plain) {
		t.Fatalf("the flight recorder changed figure3's bytes\n--- recorded ---\n%s\n--- plain ---\n%s", recorded, plain)
	}
}
