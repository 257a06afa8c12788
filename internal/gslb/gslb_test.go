package gslb

import (
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
)

// stubTelemetry is a scriptable telemetry source: tests flip per-region
// health by adjusting ActiveVMs against a fixed baseline.
type stubTelemetry struct {
	active  []int
	served  []uint64
	dropped []uint64
}

func newStub(n int) *stubTelemetry {
	s := &stubTelemetry{active: make([]int, n), served: make([]uint64, n), dropped: make([]uint64, n)}
	for i := range s.active {
		s.active[i] = 4
	}
	return s
}

func (s *stubTelemetry) sample(i int) cloudsim.Telemetry {
	return cloudsim.Telemetry{
		Region:         regionNames(len(s.active))[i],
		ActiveVMs:      s.active[i],
		BaselineActive: 4,
		Capacity:       float64(s.active[i]) * 10,
		Served:         s.served[i],
		Dropped:        s.dropped[i],
	}
}

func regionNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "region" + string(rune('1'+i))
	}
	return names
}

func newTestDirector(t *testing.T, cfg Config, stub *stubTelemetry) *Director {
	t.Helper()
	d, err := NewDirector(cfg, regionNames(len(stub.active)), nil, stub.sample)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGSLBParsePolicy(t *testing.T) {
	for _, k := range PolicyKinds() {
		got, err := ParsePolicy(string(k))
		if err != nil || got != k {
			t.Fatalf("ParsePolicy(%q) = %v, %v", k, got, err)
		}
	}
	if _, err := ParsePolicy("geo"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
}

func TestGSLBNewDirectorValidation(t *testing.T) {
	stub := newStub(2)
	cases := []Config{
		{},                // no policy
		{Policy: "bogus"}, // unknown policy
		{Policy: PolicyStatic, Weights: []float64{1}},                        // weight count mismatch
		{Policy: PolicyFailover, Preference: []string{"regionX"}},            // unknown region
		{Policy: PolicyFailover, Preference: []string{"region1", "region1"}}, // duplicate
	}
	for i, cfg := range cases {
		if _, err := NewDirector(cfg, regionNames(2), nil, stub.sample); err == nil {
			t.Fatalf("case %d: NewDirector accepted invalid config %+v", i, cfg)
		}
	}
}

// TestFailoverStateMachine drives one region through the full drain/failback
// cycle and checks the debounce streaks and the transition log.
func TestGSLBFailoverStateMachine(t *testing.T) {
	stub := newStub(2)
	d := newTestDirector(t, Config{Policy: PolicyFailover, UnhealthyAfter: 2, HealthyAfter: 3}, stub)

	rng := simclock.NewRNG(1)
	var rr uint64
	if got := d.Table().RouteStream(0, rng, &rr); got != 0 {
		t.Fatalf("initial route = region %d, want 0 (preferred)", got)
	}

	// One bad probe: degraded but still serving (preferred).
	stub.active[0] = 0
	d.Tick(15)
	if d.health[0].State != Degraded {
		t.Fatalf("after 1 bad probe: %v, want degraded", d.health[0].State)
	}
	if got := d.Table().RouteStream(0, rng, &rr); got != 0 {
		t.Fatalf("degraded region should still serve, routed to %d", got)
	}

	// Second bad probe: drained; traffic fails over to region2.
	d.Tick(30)
	if d.health[0].State != Drained {
		t.Fatalf("after 2 bad probes: %v, want drained", d.health[0].State)
	}
	if got := d.Table().RouteStream(0, rng, &rr); got != 1 {
		t.Fatalf("drained region still routed: got %d, want 1", got)
	}

	// Recovery needs three consecutive good probes; the first two keep the
	// region excluded (recovering), the third fails traffic back.
	stub.active[0] = 4
	d.Tick(45)
	if d.health[0].State != Recovering {
		t.Fatalf("after 1 good probe: %v, want recovering", d.health[0].State)
	}
	if got := d.Table().RouteStream(0, rng, &rr); got != 1 {
		t.Fatalf("recovering region already serving: got %d", got)
	}
	d.Tick(60)
	d.Tick(75)
	if d.health[0].State != Healthy {
		t.Fatalf("after 3 good probes: %v, want healthy", d.health[0].State)
	}
	if got := d.Table().RouteStream(0, rng, &rr); got != 0 {
		t.Fatalf("failback did not happen: routed to %d", got)
	}

	want := []Transition{
		{At: 15, Region: "region1", From: Healthy, To: Degraded},
		{At: 30, Region: "region1", From: Degraded, To: Drained},
		{At: 45, Region: "region1", From: Drained, To: Recovering},
		{At: 75, Region: "region1", From: Recovering, To: Healthy},
	}
	got := d.Transitions()
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestErrorSignalDrains checks the second drain trigger: a region whose
// interval drop ratio crosses ErrorThreshold drains even with full capacity.
func TestGSLBErrorSignalDrains(t *testing.T) {
	stub := newStub(2)
	d := newTestDirector(t, Config{Policy: PolicyFailover, UnhealthyAfter: 1}, stub)
	stub.served[0], stub.dropped[0] = 100, 0
	d.Tick(15)
	if d.health[0].State != Healthy {
		t.Fatalf("healthy traffic drained the region: %v", d.health[0].State)
	}
	// Next interval: 10 served, 90 dropped -> 0.9 error rate > 0.5 default.
	stub.served[0], stub.dropped[0] = 110, 90
	d.Tick(30)
	if d.health[0].State != Drained {
		t.Fatalf("error burst did not drain: %v", d.health[0].State)
	}
}

func TestGSLBRoundRobinRotation(t *testing.T) {
	stub := newStub(3)
	d := newTestDirector(t, Config{Policy: PolicyRoundRobin}, stub)
	rng := simclock.NewRNG(1)
	var rr uint64
	got := []int{}
	for i := 0; i < 6; i++ {
		got = append(got, d.Table().RouteStream(0, rng, &rr))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
	// Draining the middle region shrinks the rotation to the survivors.
	stub.active[1] = 0
	d.Tick(15)
	d.Tick(30)
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		seen[d.Table().RouteStream(0, rng, &rr)] = true
	}
	if seen[1] || !seen[0] || !seen[2] {
		t.Fatalf("post-drain rotation hit %v, want only regions 0 and 2", seen)
	}
}

func TestGSLBStaticWeightsFollowConfig(t *testing.T) {
	stub := newStub(2)
	d := newTestDirector(t, Config{Policy: PolicyStatic, Weights: []float64{3, 1}}, stub)
	rng := simclock.NewRNG(7)
	var rr uint64
	counts := [2]int{}
	for i := 0; i < 4000; i++ {
		counts[d.Table().RouteStream(0, rng, &rr)]++
	}
	frac := float64(counts[0]) / 4000
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("static 3:1 weights routed %.3f to region1, want ~0.75", frac)
	}
}

func TestGSLBLeastLoadFollowsCapacity(t *testing.T) {
	stub := newStub(2)
	d := newTestDirector(t, Config{Policy: PolicyLeastLoad}, stub)
	stub.active[0], stub.active[1] = 4, 2 // capacities 40 vs 20 after probe
	d.Tick(15)
	rng := simclock.NewRNG(7)
	var rr uint64
	counts := [2]int{}
	for i := 0; i < 3000; i++ {
		counts[d.Table().RouteStream(0, rng, &rr)]++
	}
	frac := float64(counts[0]) / 3000
	if frac < 0.60 || frac > 0.73 {
		t.Fatalf("least-load routed %.3f to the 2x-capacity region, want ~2/3", frac)
	}
}

// chiSquare returns Pearson's statistic of the observed counts against the
// expected shares (which sum to 1).
func chiSquare(counts []int, shares []float64) float64 {
	n := 0
	for _, c := range counts {
		n += c
	}
	stat := 0.0
	for i, c := range counts {
		want := float64(n) * shares[i]
		stat += (float64(c) - want) * (float64(c) - want) / want
	}
	return stat
}

// chi2Crit3 is the 0.999 quantile of the χ² distribution with 2 degrees of
// freedom, the multinomial over three regions: a correct router exceeds it
// on one seed in a thousand.
const chi2Crit3 = 13.816

// TestGSLBRouteSharesChiSquare is a multinomial χ² test of the routed
// counts against the configured shares, over several seeds: a static plane
// with 5:3:2 weights, and a least-load plane held steady at capacities
// 40:30:20 over several probes (every region stays healthy).
func TestGSLBRouteSharesChiSquare(t *testing.T) {
	static := newStub(3)
	leastLoad := newStub(3)
	leastLoad.active[0], leastLoad.active[1], leastLoad.active[2] = 4, 3, 2
	ll := newTestDirector(t, Config{Policy: PolicyLeastLoad}, leastLoad)
	for tick := 1; tick <= 5; tick++ {
		ll.Tick(simclock.Time(15 * tick))
	}
	if st := ll.States(); st[0] != Healthy || st[1] != Healthy || st[2] != Healthy {
		t.Fatalf("steady least-load plane left healthy: %v", st)
	}
	for _, tc := range []struct {
		name   string
		d      *Director
		shares []float64
	}{
		{"static", newTestDirector(t, Config{Policy: PolicyStatic, Weights: []float64{5, 3, 2}}, static), []float64{0.5, 0.3, 0.2}},
		{"leastload", ll, []float64{4.0 / 9, 3.0 / 9, 2.0 / 9}},
	} {
		const routes = 100_000
		for seed := uint64(1); seed <= 5; seed++ {
			rng := simclock.NewRNG(seed)
			var rr uint64
			counts := make([]int, 3)
			table := tc.d.Table()
			for i := 0; i < routes; i++ {
				counts[table.RouteStream(0, rng, &rr)]++
			}
			if stat := chiSquare(counts, tc.shares); stat > chi2Crit3 {
				t.Errorf("%s seed %d: χ² = %.2f > %.2f (counts %v, shares %v)", tc.name, seed, stat, chi2Crit3, counts, tc.shares)
			}
		}
	}
}

// TestAllDrainedFallsBack: with every region drained the table routes to the
// full preference order rather than nowhere.
func TestGSLBAllDrainedFallsBack(t *testing.T) {
	stub := newStub(2)
	d := newTestDirector(t, Config{Policy: PolicyFailover, UnhealthyAfter: 1}, stub)
	stub.active[0], stub.active[1] = 0, 0
	d.Tick(15)
	rng := simclock.NewRNG(1)
	var rr uint64
	if got := d.Table().RouteStream(0, rng, &rr); got != 0 {
		t.Fatalf("all-drained fallback routed to %d, want preferred 0", got)
	}
}

// stubRegion is a minimal serving region for the conservation property: it
// completes every submitted request after a service delay unless "down", in
// which case it drops them — either way the request finishes exactly once.
type stubRegion struct {
	name string
	down bool
}

func (r *stubRegion) submit(eng *simclock.Engine, id uint64, done func(dropped bool)) {
	if r.down {
		done(true)
		return
	}
	eng.ScheduleFunc(simclock.Duration(0.05), func(*simclock.Engine) { done(false) })
}

// TestFailoverConservationProperty is the no-drop/no-duplicate property of
// the ISSUE: across randomized outage/recovery flapping, every request the
// director routes is delivered to exactly one region and completes exactly
// once.  The schedule, the arrivals and the health signals all derive from a
// seeded RNG, so a failure reproduces byte-for-byte.
func TestGSLBFailoverConservationProperty(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := simclock.NewRNG(seed)
		eng := simclock.NewEngine(seed)

		const n = 3
		regions := make([]*stubRegion, n)
		active := make([]int, n)
		for i := range regions {
			regions[i] = &stubRegion{name: regionNames(n)[i]}
			active[i] = 4
		}
		sample := func(i int) cloudsim.Telemetry {
			return cloudsim.Telemetry{ActiveVMs: active[i], BaselineActive: 4, Capacity: float64(active[i])}
		}
		d, err := NewDirector(Config{Policy: PolicyFailover, UnhealthyAfter: 1, HealthyAfter: 2}, regionNames(n), nil, sample)
		if err != nil {
			t.Fatal(err)
		}

		// Random flapping: every second some region may go down or come back.
		stopFlap := eng.Ticker(1, func(*simclock.Engine) {
			i := rng.Intn(n)
			up := rng.Bool(0.5)
			regions[i].down = !up
			if up {
				active[i] = 4
			} else {
				active[i] = 0
			}
		})
		// Probe every 2 seconds.
		stopProbe := eng.Ticker(2, func(e *simclock.Engine) { d.Tick(e.Now()) })

		// Arrivals every 20 ms; count completions per request.
		completions := map[uint64]int{}
		routed := uint64(0)
		routeRNG := simclock.NewRNG(seed ^ 0xabcdef)
		var rr uint64
		var nextID uint64
		stopArrivals := eng.Ticker(0.02, func(e *simclock.Engine) {
			id := nextID
			nextID++
			ri := d.Table().RouteStream(0, routeRNG, &rr)
			routed++
			regions[ri].submit(e, id, func(bool) { completions[id]++ })
		})

		if err := eng.Run(60); err != nil && err != simclock.ErrHorizonReached {
			t.Fatal(err)
		}
		stopFlap()
		stopProbe()
		stopArrivals()
		eng.RunUntilEmpty()

		if routed != nextID {
			t.Fatalf("seed %d: issued %d requests but routed %d", seed, nextID, routed)
		}
		for id := uint64(0); id < nextID; id++ {
			if completions[id] != 1 {
				t.Fatalf("seed %d: request %d completed %d times, want exactly 1", seed, id, completions[id])
			}
		}
	}
}
