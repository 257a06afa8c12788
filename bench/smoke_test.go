package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestSmokeEveryWorkloadEmitsBenchmarkMetrics runs every workload's op at a
// two-minute horizon, untraced and traced, and every probe for one round,
// and checks that the emitted metrics are exactly the ones BENCHMARK.json
// declares, with its units, and finite.
func TestSmokeEveryWorkloadEmitsBenchmarkMetrics(t *testing.T) {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		benchSpec
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}

	for _, w := range workloads {
		op, err := runOp(w, verifySeed, 2*simclock.Minute, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runOp(w, verifySeed, 2*simclock.Minute, true)
		if err != nil {
			t.Fatal(err)
		}
		if op.fingerprint() != traced.fingerprint() {
			t.Errorf("%s: tracing changed the series: %s vs %s", w.name, op.fingerprint(), traced.fingerprint())
		}
		if traced.Counts.Events == 0 || traced.Counts.Eras == 0 || traced.Counts.requests() == 0 {
			t.Errorf("%s: degenerate traced counts %+v", w.name, *traced.Counts)
		}
		sz, err := sizingFor(w, traced.Counts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := runProbes(sz, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		s := &session{w: w, calib: &calibrator{}, ops: []*opResult{op}, tracedOps: []*opResult{traced}, probes: p}
		checkEmitted(t, w.name+" end-to-end", spec.EndToEnd, unitsOf(s.endToEnd(1)))
		layers := map[string]string{}
		for name, v := range s.perLayer() {
			layers[name] = v.Unit
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", w.name, name, v.Value)
			}
		}
		checkEmitted(t, w.name+" per-layer", spec.PerLayer, layers)
	}
}

func unitsOf(m map[string]summary) map[string]string {
	out := map[string]string{}
	for name, s := range m {
		out[name] = s.Unit
	}
	return out
}

// checkEmitted requires the emitted metric names and units to equal the
// declared ones.
func checkEmitted(t *testing.T, what string, declared []metricSpec, emitted map[string]string) {
	t.Helper()
	if len(declared) != len(emitted) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", what, len(declared), len(emitted))
	}
	for _, m := range declared {
		if unit, ok := emitted[m.Name]; !ok {
			t.Errorf("%s: %s declared but not emitted", what, m.Name)
		} else if unit != m.Unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", what, m.Name, unit, m.Unit)
		}
	}
}
