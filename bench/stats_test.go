package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values from Python's statistics.quantiles(values, n=4).
	cases := []struct {
		values        []float64
		p25, p50, p75 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		p25, p50, p75 := quartiles(c.values)
		if math.Abs(p25-c.p25) > 1e-12 || math.Abs(p50-c.p50) > 1e-12 || math.Abs(p75-c.p75) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, p25, p50, p75, c.p25, c.p50, c.p75)
		}
	}
	s := summarize("s", []float64{4, 1, 3, 2})
	if s.N != 4 || s.Median != 2.5 || math.Abs(s.spread()-1) > 1e-12 {
		t.Errorf("summarize = %+v spread %v", s, s.spread())
	}
}

func TestVerdictRules(t *testing.T) {
	runs := func(vs ...float64) summary { return summarize("s", vs) }
	cases := []struct {
		name  string
		a, b  summary
		lower bool
		bound float64
		want  string
	}{
		{"within bound", runs(10, 10.1, 9.9), runs(10.5, 10.4, 10.6), true, 0.1, verdictSame},
		{"slower beyond bound", runs(10, 10.1, 9.9), runs(12, 12.1, 11.9), true, 0.1, verdictWorse},
		{"faster beyond bound", runs(10, 10.1, 9.9), runs(8, 8.1, 7.9), true, 0.1, verdictBetter},
		{"higher-is-better drop", runs(100, 101, 99), runs(80, 81, 79), false, 0.1, verdictWorse},
		{"higher-is-better gain", runs(100, 101, 99), runs(120, 121, 119), false, 0.1, verdictBetter},
		// Both sides spread over 40% of their median and overlap: no call.
		{"noisy overlap", runs(6, 10, 14, 8, 12), runs(7, 12, 17, 9, 15), true, 0.1, verdictUnresolved},
		// Just as noisy, but every candidate run is slower than every
		// baseline run, so the regression stands.
		{"noisy but separated", runs(6, 7, 8, 9, 10), runs(11, 12, 14, 16, 18), true, 0.1, verdictWorse},
		// Noisier than the bound, separated, and within the bound: the same.
		{"noisy separated small", runs(100, 120, 140), runs(141, 150, 160), true, 0.3, verdictSame},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s (spreads %.3f / %.3f)", c.name, got, c.want, c.a.spread(), c.b.spread())
		}
	}
}

func TestCheckOpConservation(t *testing.T) {
	w, _ := workloadByName("megaclients")
	ok := &opResult{Runs: []runSummary{{Issued: 110, Completed: 90, Dropped: 5, Timeouts: 5, EffectiveClients: 10}}}
	if err := checkOp(w, ok, false); err != nil {
		t.Fatalf("10 in flight for 10 clients rejected: %v", err)
	}
	for _, r := range []runSummary{
		{Issued: 111, Completed: 90, Dropped: 5, Timeouts: 5, EffectiveClients: 10}, // a leak
		{Issued: 90, Completed: 90, Dropped: 5, Timeouts: 5, EffectiveClients: 10},  // double counting
	} {
		if err := checkOp(w, &opResult{Runs: []runSummary{r}}, false); err == nil || !strings.Contains(err.Error(), "in flight") {
			t.Errorf("%+v: err = %v, want an in-flight violation", r, err)
		}
	}
}
