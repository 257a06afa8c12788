package gslb

import (
	"encoding/json"
	"testing"

	"repro/internal/simclock"
)

// routeCounts draws n routes from the table for the given stream and counts
// the per-region hits.
func routeCounts(t *Table, stream, regions, n int, seed uint64) []int {
	rng := simclock.NewRNG(seed)
	var rr uint64
	counts := make([]int, regions)
	for i := 0; i < n; i++ {
		counts[t.RouteStream(stream, rng, &rr)]++
	}
	return counts
}

// TestGSLBLatencyPrefersNearRegion: with asymmetric seeded RTTs and equal
// capacities, each stream's traffic concentrates on its nearest region.
func TestGSLBLatencyPrefersNearRegion(t *testing.T) {
	stub := newStub(3)
	d, err := NewDirector(Config{
		Policy:          PolicyLatency,
		LatencyExponent: 2,
		RTT: map[string][]float64{
			"west": {40, 160, 240},
			"east": {240, 160, 40},
		},
	}, regionNames(3), []string{"west", "east"}, stub.sample)
	if err != nil {
		t.Fatal(err)
	}
	if !d.LatencyAware() {
		t.Fatal("latency policy director is not latency-aware")
	}
	tab := d.Table()
	west := routeCounts(tab, 0, 3, 3000, 11)
	east := routeCounts(tab, 1, 3, 3000, 11)
	if west[0] <= west[2] || float64(west[0])/3000 < 0.8 {
		t.Fatalf("west stream routed %v, want concentrated on region 0", west)
	}
	if east[2] <= east[0] || float64(east[2])/3000 < 0.8 {
		t.Fatalf("east stream routed %v, want concentrated on region 2", east)
	}
}

// TestGSLBLatencyLearnsFromObservations: observations of a doubled RTT fold
// into the EWMA at the tick and shift the routing weights away from the
// slowed lane — the cable-cut mechanism in unit form.
func TestGSLBLatencyLearnsFromObservations(t *testing.T) {
	stub := newStub(2)
	d, err := NewDirector(Config{
		Policy:          PolicyLatency,
		LatencyExponent: 2,
		LatencyAlpha:    0.5,
		RTT:             map[string][]float64{"west": {40, 60}},
	}, regionNames(2), []string{"west"}, stub.sample)
	if err != nil {
		t.Fatal(err)
	}
	before := routeCounts(d.Table(), 0, 2, 4000, 5)
	if before[0] <= before[1] {
		t.Fatalf("seeded estimates routed %v, want majority to region 0", before)
	}

	// The cable to region 0 is cut: completions now observe 400 ms.  Several
	// probe intervals of observations walk the EWMA up.
	for tick := 1; tick <= 6; tick++ {
		for i := 0; i < 10; i++ {
			d.Observe(0, 0, 400, 1)
			d.Observe(0, 1, 60, 1)
		}
		d.Tick(simclock.Time(tick) * 15)
	}
	if est := d.LatencyEstimateMs(0, 0); est < 350 {
		t.Fatalf("EWMA after six intervals of 400 ms observations = %v ms, want > 350", est)
	}
	if est := d.LatencyEstimateMs(0, 1); est < 59 || est > 61 {
		t.Fatalf("untouched lane drifted: %v ms, want ~60", est)
	}
	after := routeCounts(d.Table(), 0, 2, 4000, 5)
	if after[0] >= after[1] {
		t.Fatalf("learned estimates still route %v to the slow region, want majority to region 1", after)
	}
	if p95 := d.LatencyP95Ms(0, 0); p95 < 350 {
		t.Fatalf("P² p95 = %v ms, want near 400", p95)
	}
}

// TestGSLBObserveBatchWeight: a cohort batch weighs the EWMA by its
// interaction count, not once per completion.
func TestGSLBObserveBatchWeight(t *testing.T) {
	stub := newStub(1)
	d, err := NewDirector(Config{
		Policy:       PolicyLatency,
		LatencyAlpha: 1,
		RTT:          map[string][]float64{"west": {100}},
	}, regionNames(1), []string{"west"}, stub.sample)
	if err != nil {
		t.Fatal(err)
	}
	d.Observe(0, 0, 10, 9) // a 9-interaction batch at 10 ms
	d.Observe(0, 0, 100, 1)
	d.Tick(15)
	// Weighted mean = (9*10 + 100) / 10 = 19; alpha 1 adopts it outright.
	if est := d.LatencyEstimateMs(0, 0); est != 19 {
		t.Fatalf("batch-weighted EWMA = %v, want 19", est)
	}
}

// TestGSLBStaleLaneKeepsEstimate: lanes without observations keep their
// estimate across ticks instead of decaying.
func TestGSLBStaleLaneKeepsEstimate(t *testing.T) {
	stub := newStub(2)
	d, err := NewDirector(Config{
		Policy: PolicyLatency,
		RTT:    map[string][]float64{"west": {40, 200}},
	}, regionNames(2), []string{"west"}, stub.sample)
	if err != nil {
		t.Fatal(err)
	}
	d.Tick(15)
	d.Tick(30)
	if est := d.LatencyEstimateMs(0, 1); est != 200 {
		t.Fatalf("unobserved lane moved to %v ms, want the 200 ms seed", est)
	}
}

// TestGSLBZeroWeightRowFallsBackToUniform is the bugfix regression: a static
// table whose only positively weighted region drained used to hand
// rng.Choice an all-zero distribution.  The row now degrades to uniform over
// the serving set.
func TestGSLBZeroWeightRowFallsBackToUniform(t *testing.T) {
	stub := newStub(3)
	d := newTestDirector(t, Config{
		Policy:         PolicyStatic,
		Weights:        []float64{1, 0, 0},
		UnhealthyAfter: 1,
		HealthyAfter:   2,
	}, stub)
	stub.active[0] = 0 // drain the only weighted region
	d.Tick(15)
	counts := routeCounts(d.Table(), 0, 3, 2000, 3)
	if counts[0] != 0 {
		t.Fatalf("drained region still routed: %v", counts)
	}
	if counts[1] == 0 || counts[2] == 0 {
		t.Fatalf("zero-weight fallback is not uniform over survivors: %v", counts)
	}
}

// TestGSLBLeastLoadZeroCapacityFallsBack: every survivor probing at capacity
// 0 (least-load's zero row) also degrades to uniform.
func TestGSLBLeastLoadZeroCapacityFallsBack(t *testing.T) {
	stub := newStub(2)
	d := newTestDirector(t, Config{Policy: PolicyLeastLoad, CapacityThreshold: DisabledThreshold}, stub)
	// Zero active VMs -> capacity 0, but the disabled capacity threshold
	// keeps both regions serving: the weight row is all zero.
	stub.active[0], stub.active[1] = 0, 0
	d.Tick(15)
	counts := routeCounts(d.Table(), 0, 2, 2000, 3)
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("zero-capacity least-load row is not uniform: %v", counts)
	}
}

// TestGSLBWeightsValidation is the bugfix's config-time half: negative or
// all-zero static weights are rejected with named-field errors.
func TestGSLBWeightsValidation(t *testing.T) {
	stub := newStub(2)
	for _, w := range [][]float64{{-1, 2}, {0, 0}} {
		if _, err := NewDirector(Config{Policy: PolicyStatic, Weights: w}, regionNames(2), nil, stub.sample); err == nil {
			t.Fatalf("NewDirector accepted Weights = %v", w)
		}
	}
	if _, err := NewDirector(Config{Policy: PolicyStatic, Weights: []float64{0, 3}}, regionNames(2), nil, stub.sample); err != nil {
		t.Fatalf("NewDirector rejected valid weights: %v", err)
	}
}

// TestGSLBCounterRegressionClamps is the underflow bugfix regression: a
// served counter that moves backwards must not underflow into a huge delta
// that trips the error threshold.
func TestGSLBCounterRegressionClamps(t *testing.T) {
	stub := newStub(2)
	d := newTestDirector(t, Config{Policy: PolicyFailover, UnhealthyAfter: 1}, stub)
	stub.served[0], stub.dropped[0] = 1000, 10
	d.Tick(15)
	if d.health[0].State != Healthy {
		t.Fatalf("low drop ratio drained the region: %v", d.health[0].State)
	}
	// The region restarts: its counters regress to near zero.  With the
	// unsigned subtraction this produced dServed ~ 2^64 and dDropped ~ 2^64
	// (error rate garbage); the clamp resyncs instead.
	stub.served[0], stub.dropped[0] = 5, 8
	d.Tick(30)
	if d.health[0].State != Healthy {
		t.Fatalf("counter regression drained the region: %v", d.health[0].State)
	}
	// And the probe after the regression measures deltas from the regressed
	// base, so real drops show up again.
	stub.served[0], stub.dropped[0] = 6, 100
	d.Tick(45)
	if d.health[0].State != Drained {
		t.Fatalf("post-regression error burst missed: %v", d.health[0].State)
	}
}

// TestGSLBThresholdSentinels pins the -1 semantics: CapacityThreshold -1
// never drains on capacity, ErrorThreshold -1 counts any drop as a bad
// probe, and 0 still means "unset" (the defaults apply) so existing
// configurations keep their bytes.
func TestGSLBThresholdSentinels(t *testing.T) {
	// -1 capacity threshold: a zero-capacity region stays healthy.
	stub := newStub(2)
	d := newTestDirector(t, Config{Policy: PolicyFailover, CapacityThreshold: DisabledThreshold, UnhealthyAfter: 1}, stub)
	stub.active[0] = 0
	d.Tick(15)
	if d.health[0].State != Healthy {
		t.Fatalf("disabled capacity threshold still drained: %v", d.health[0].State)
	}

	// -1 error threshold: a single drop in an interval is a bad probe.
	stub2 := newStub(2)
	d2 := newTestDirector(t, Config{Policy: PolicyFailover, ErrorThreshold: DisabledThreshold, UnhealthyAfter: 1}, stub2)
	stub2.served[0], stub2.dropped[0] = 10000, 1
	d2.Tick(15)
	if d2.health[0].State != Drained {
		t.Fatalf("zero error tolerance missed a drop: %v", d2.health[0].State)
	}

	// 0 still selects the defaults.
	cfg := newTestDirector(t, Config{Policy: PolicyFailover}, newStub(1)).Config()
	if cfg.CapacityThreshold != 0.5 || cfg.ErrorThreshold != 0.5 {
		t.Fatalf("unset thresholds defaulted to %v/%v, want 0.5/0.5", cfg.CapacityThreshold, cfg.ErrorThreshold)
	}

	// Invalid negatives are named-field errors.
	for _, bad := range []Config{
		{Policy: PolicyFailover, CapacityThreshold: -0.5},
		{Policy: PolicyFailover, ErrorThreshold: -2},
	} {
		if _, err := NewDirector(bad, regionNames(1), nil, newStub(1).sample); err == nil {
			t.Fatalf("NewDirector accepted config %+v", bad)
		}
	}
}

// TestGSLBConfigJSONRoundTrip: the sentinel thresholds and the RTT matrix
// survive a JSON round trip unchanged.
func TestGSLBConfigJSONRoundTrip(t *testing.T) {
	in := Config{
		Policy:            PolicyLatency,
		CapacityThreshold: DisabledThreshold,
		ErrorThreshold:    DisabledThreshold,
		LatencyExponent:   2,
		LatencyAlpha:      0.25,
		RTT:               map[string][]float64{"west": {40, 160}, "east": {160, 40}},
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Config
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if out.CapacityThreshold != DisabledThreshold || out.ErrorThreshold != DisabledThreshold {
		t.Fatalf("thresholds round-tripped to %v/%v", out.CapacityThreshold, out.ErrorThreshold)
	}
	if out.LatencyExponent != 2 || out.LatencyAlpha != 0.25 {
		t.Fatalf("latency knobs round-tripped to %v/%v", out.LatencyExponent, out.LatencyAlpha)
	}
	if len(out.RTT) != 2 || out.RTT["west"][1] != 160 || out.RTT["east"][0] != 160 {
		t.Fatalf("RTT matrix round-tripped to %v", out.RTT)
	}
}

// TestGSLBRTTValidation: RTT rows must name known streams, match the region
// count and contain finite non-negative entries.
func TestGSLBRTTValidation(t *testing.T) {
	stub := newStub(2)
	streams := []string{"west"}
	cases := []map[string][]float64{
		{"unknown": {1, 2}}, // no such stream
		{"west": {1}},       // row length mismatch
		{"west": {-5, 2}},   // negative entry
	}
	for i, rtt := range cases {
		cfg := Config{Policy: PolicyLatency, RTT: rtt}
		if _, err := NewDirector(cfg, regionNames(2), streams, stub.sample); err == nil {
			t.Fatalf("case %d: NewDirector accepted RTT %v", i, rtt)
		}
	}
}

// TestGSLBFallbackTableEveryPolicy: with every region drained, each policy's
// fallback table still routes into the full preference order.
func TestGSLBFallbackTableEveryPolicy(t *testing.T) {
	for _, kind := range PolicyKinds() {
		stub := newStub(3)
		cfg := Config{Policy: kind, UnhealthyAfter: 1}
		if kind == PolicyStatic {
			cfg.Weights = []float64{0, 0, 1} // only region 2 weighted, and it drains too
		}
		if kind == PolicyLatency {
			cfg.RTT = map[string][]float64{"west": {40, 80, 120}}
		}
		d, err := NewDirector(cfg, regionNames(3), []string{"west"}, stub.sample)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := range stub.active {
			stub.active[i] = 0
		}
		d.Tick(15)
		d.Tick(30)
		for i, s := range d.States() {
			if s.Serving() {
				t.Fatalf("%s: region %d still serving", kind, i)
			}
		}
		tab := d.Table()
		if got := len(tab.eligible); got != 3 {
			t.Fatalf("%s: fallback table has %d eligible regions, want 3", kind, got)
		}
		counts := routeCounts(tab, 0, 3, 300, 9)
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != 300 {
			t.Fatalf("%s: fallback table dropped routes: %v", kind, counts)
		}
		if kind == PolicyRoundRobin && (counts[0] != 100 || counts[1] != 100 || counts[2] != 100) {
			t.Fatalf("rr fallback rotation uneven: %v", counts)
		}
		if kind == PolicyFailover && counts[0] != 300 {
			t.Fatalf("failover fallback must pin the preferred region: %v", counts)
		}
	}
}
