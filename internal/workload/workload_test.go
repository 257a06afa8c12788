package workload

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
)

// immediateDispatcher completes every request instantly with the given
// response delay.
type immediateDispatcher struct {
	delay   simclock.Duration
	drop    bool
	submits int
}

func (d *immediateDispatcher) Submit(eng *simclock.Engine, req *cloudsim.Request) {
	d.submits++
	done := func(e *simclock.Engine) {
		req.OnDone(cloudsim.Outcome{
			Request: req,
			VM:      "fake-vm",
			Start:   req.Arrival,
			End:     e.Now(),
			Dropped: d.drop,
		})
	}
	if d.delay > 0 {
		eng.ScheduleFunc(d.delay, done)
	} else {
		done(eng)
	}
}

func TestMixesValidateAndNormalise(t *testing.T) {
	for _, m := range []Mix{BrowsingMix(), ShoppingMix(), OrderingMix()} {
		if err := m.Validate(); err != nil {
			t.Errorf("mix %s failed validation: %v", m.Name, err)
		}
		if len(m.Entries) != 14 {
			t.Errorf("mix %s has %d interactions, want the 14 TPC-W interactions", m.Name, len(m.Entries))
		}
		if msf := m.MeanServiceFactor(); msf <= 0 || msf > 4 {
			t.Errorf("mix %s mean service factor = %v, want a small positive value", m.Name, msf)
		}
	}
	if err := (Mix{Name: "empty"}).Validate(); err == nil {
		t.Errorf("empty mix should fail validation")
	}
	neg := Mix{Name: "neg", Entries: []Interaction{{Name: "home", Weight: -1}}}
	if err := neg.Validate(); err == nil {
		t.Errorf("negative-weight mix should fail validation")
	}
}

func TestBrowsingMixIsBrowseDominated(t *testing.T) {
	m := BrowsingMix()
	browse, order := 0.0, 0.0
	orderClasses := map[string]bool{
		"shopping_cart": true, "customer_registration": true, "buy_request": true,
		"buy_confirm": true, "order_inquiry": true, "order_display": true,
		"admin_request": true, "admin_confirm": true,
	}
	for _, e := range m.Entries {
		if orderClasses[e.Name] {
			order += e.Weight
		} else {
			browse += e.Weight
		}
	}
	if frac := browse / (browse + order); frac < 0.90 {
		t.Fatalf("browsing mix should be ~95%% browse interactions, got %.2f", frac)
	}
}

func TestMixPickRespectsWeights(t *testing.T) {
	rng := simclock.NewRNG(17)
	m := BrowsingMix()
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[m.Pick(rng).Name]++
	}
	// "home" has weight 29/100 in the browsing mix.
	frac := float64(counts["home"]) / n
	if math.Abs(frac-0.29) > 0.02 {
		t.Fatalf("home frequency = %.3f, want ~0.29", frac)
	}
	if counts["admin_confirm"] > counts["product_detail"] {
		t.Fatalf("rare interaction drawn more often than a common one")
	}
}

// TestMixPickDrawsChoiceAllocationFree pins Mix.Pick to exactly the
// interaction RNG.Choice over the mix weights picks, including the uniform
// fallback of an all-zero mix, and to zero allocations per pick.
func TestMixPickDrawsChoiceAllocationFree(t *testing.T) {
	zero := Mix{Name: "zero", Entries: Interactions()}
	for _, m := range []Mix{BrowsingMix(), ShoppingMix(), OrderingMix(), zero} {
		weights := make([]float64, len(m.Entries))
		for i, e := range m.Entries {
			weights[i] = e.Weight
		}
		a, b := simclock.NewRNG(5), simclock.NewRNG(5)
		for i := 0; i < 2000; i++ {
			if got, want := m.Pick(a).Name, m.Entries[b.Choice(weights)].Name; got != want {
				t.Fatalf("mix %s draw %d: Pick = %s, Choice = %s", m.Name, i, got, want)
			}
		}
	}
	m, rng := BrowsingMix(), simclock.NewRNG(5)
	if allocs := testing.AllocsPerRun(1000, func() { m.Pick(rng) }); allocs != 0 {
		t.Fatalf("Mix.Pick allocates %.1f times per call, want 0", allocs)
	}
}

func TestInteractionsCopy(t *testing.T) {
	a := Interactions()
	a[0].Name = "mutated"
	if Interactions()[0].Name == "mutated" {
		t.Fatalf("Interactions should return a copy")
	}
}

func TestBrowserClosedLoop(t *testing.T) {
	eng := simclock.NewEngine(5)
	disp := &immediateDispatcher{delay: 100 * simclock.Millisecond}
	metrics := NewMetrics()
	b := NewBrowser(BrowserConfig{
		ID: "eb1", Region: "region1", Mix: BrowsingMix(),
		ThinkTimeMean: 2 * simclock.Second,
	}, eng.RNG().Fork(), disp, metrics)

	b.Start(eng)
	if !b.Running() {
		t.Fatalf("browser should be running after Start")
	}
	b.Start(eng) // double start is a no-op
	if err := eng.Run(10 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	b.Stop()

	issued := metrics.Issued("region1")
	if issued == 0 {
		t.Fatalf("browser issued no requests")
	}
	// Closed loop with ~2.1s cycle over 600s => roughly 285 requests; allow a
	// generous band.
	if issued < 150 || issued > 500 {
		t.Fatalf("issued = %d, want roughly 600s / 2.1s cycles", issued)
	}
	if metrics.Completed("region1") != issued {
		t.Fatalf("all issued requests should have completed: issued=%d completed=%d",
			issued, metrics.Completed("region1"))
	}
	if rt := metrics.MeanResponseTime("region1"); math.Abs(rt-0.1) > 0.02 {
		t.Fatalf("mean response time = %v, want ~0.1s", rt)
	}
}

func TestBrowserStopEndsLoop(t *testing.T) {
	eng := simclock.NewEngine(6)
	disp := &immediateDispatcher{}
	metrics := NewMetrics()
	b := NewBrowser(BrowserConfig{ID: "eb1", Region: "r", Mix: BrowsingMix(), ThinkTimeMean: simclock.Second},
		eng.RNG().Fork(), disp, metrics)
	b.Start(eng)
	eng.ScheduleFunc(10*simclock.Second, func(*simclock.Engine) { b.Stop() })
	eng.RunUntilEmpty()
	if b.Running() {
		t.Fatalf("browser should have stopped")
	}
	after := metrics.Issued("r")
	// Nothing more can be issued because the queue drained.
	if after == 0 {
		t.Fatalf("browser should have issued requests before stopping")
	}
}

// holdDispatcher queues every request and completes none by itself.
type holdDispatcher struct{ held []*cloudsim.Request }

func (d *holdDispatcher) Submit(_ *simclock.Engine, req *cloudsim.Request) {
	d.held = append(d.held, req)
}

// TestBrowserRecyclesTimedOutRequestOnce covers the request-ownership rule on
// the timeout path: a request the user gave up on stays out of the free list
// while it is still queued, its late completion releases it exactly once
// without counting as a response, and only then can it be reissued.
func TestBrowserRecyclesTimedOutRequestOnce(t *testing.T) {
	eng := simclock.NewEngine(8)
	disp := &holdDispatcher{}
	met := NewMetrics()
	b := NewBrowser(BrowserConfig{
		ID: "eb1", Region: "r", Mix: BrowsingMix(),
		ThinkTimeMean: simclock.Second, Timeout: 2 * simclock.Second,
	}, eng.RNG().Fork(), disp, met)
	b.Start(eng)
	for len(disp.held) < 3 && eng.Step() {
	}
	if len(disp.held) != 3 || met.Timeouts("r") != 2 {
		t.Fatalf("held %d requests with %d timeouts, want 3 and 2", len(disp.held), met.Timeouts("r"))
	}
	if disp.held[0] == disp.held[1] || disp.held[1] == disp.held[2] || disp.held[0] == disp.held[2] {
		t.Fatal("a timed-out request still queued was reissued")
	}

	first, stillQueued, live := disp.held[0], disp.held[1], disp.held[2]
	first.Finish(eng, cloudsim.Outcome{Request: first, Start: eng.Now(), End: eng.Now()})
	if met.Completed("r") != 0 {
		t.Fatal("the late completion of a timed-out request must not count as a response")
	}
	func() {
		defer func() {
			if r := recover(); r != cloudsim.ErrRequestReleased {
				t.Fatalf("a second completion recovered %v, want ErrRequestReleased", r)
			}
		}()
		first.Finish(eng, cloudsim.Outcome{Request: first, Start: eng.Now(), End: eng.Now()})
	}()

	live.Finish(eng, cloudsim.Outcome{Request: live, Start: eng.Now(), End: eng.Now()})
	if met.Completed("r") != 1 {
		t.Fatalf("completed %d, want the live completion counted", met.Completed("r"))
	}
	for len(disp.held) < 6 && eng.Step() {
	}
	if len(disp.held) != 6 {
		t.Fatalf("held %d requests, want 6", len(disp.held))
	}
	// The free list is LIFO: the two released requests, each released once,
	// come back first.
	if disp.held[3] != live || disp.held[4] != first {
		t.Fatal("the released requests must be reused before any new one is allocated")
	}
	for _, r := range disp.held[3:] {
		if r == stillQueued {
			t.Fatal("a request still queued after its timeout was reissued")
		}
	}
}

func TestBrowserTimeoutCountsAsAbandoned(t *testing.T) {
	eng := simclock.NewEngine(7)
	// A dispatcher that never completes requests.
	blackhole := DispatcherFunc(func(*simclock.Engine, *cloudsim.Request) {})
	metrics := NewMetrics()
	b := NewBrowser(BrowserConfig{
		ID: "eb1", Region: "r", Mix: BrowsingMix(),
		ThinkTimeMean: simclock.Second, Timeout: 3 * simclock.Second,
	}, eng.RNG().Fork(), blackhole, metrics)
	b.Start(eng)
	if err := eng.Run(30 * simclock.Second); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	b.Stop()
	if metrics.Timeouts("r") == 0 {
		t.Fatalf("requests against a black-hole dispatcher should time out")
	}
	if metrics.Completed("r") != 0 {
		t.Fatalf("no request should complete")
	}
}

func TestBrowserSessionAccounting(t *testing.T) {
	eng := simclock.NewEngine(8)
	disp := &immediateDispatcher{}
	b := NewBrowser(BrowserConfig{
		ID: "eb1", Region: "r", Mix: BrowsingMix(),
		ThinkTimeMean: 500 * simclock.Millisecond, SessionLength: 10,
	}, eng.RNG().Fork(), disp, NewMetrics())
	b.Start(eng)
	if err := eng.Run(2 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	b.Stop()
	if b.Sessions() == 0 {
		t.Fatalf("browser should have completed at least one 10-interaction session")
	}
	if b.ID() != "eb1" {
		t.Fatalf("ID() = %q", b.ID())
	}
}

func TestPopulationStartStopAndExpectedRate(t *testing.T) {
	eng := simclock.NewEngine(9)
	disp := &immediateDispatcher{delay: 50 * simclock.Millisecond}
	metrics := NewMetrics()
	pop := NewPopulation(PopulationConfig{
		Region: "region3", Clients: 32, ThinkTimeMean: 2 * simclock.Second,
		RampUp: 10 * simclock.Second,
	}, simclock.NewRNG(3), disp, metrics)

	if pop.Size() != 32 || len(pop.Browsers()) != 32 {
		t.Fatalf("population size = %d, want 32", pop.Size())
	}
	if pop.Region() != "region3" {
		t.Fatalf("region = %q", pop.Region())
	}
	if er := pop.ExpectedRate(); math.Abs(er-16) > 1e-9 {
		t.Fatalf("expected rate = %v, want 32/2 = 16 req/s", er)
	}

	pop.Start(eng)
	if err := eng.Run(5 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	pop.Stop()

	issued := metrics.Issued("region3")
	// ~16 req/s over 300s minus ramp => several thousand.
	if issued < 2000 {
		t.Fatalf("population issued only %d requests", issued)
	}
	if metrics.SuccessRatio("region3") < 0.99 {
		t.Fatalf("success ratio = %v, want ~1", metrics.SuccessRatio("region3"))
	}
}

func TestPopulationDefaultsToBrowsingMixAndThinkTime(t *testing.T) {
	pop := NewPopulation(PopulationConfig{Region: "r", Clients: 4}, simclock.NewRNG(1), &immediateDispatcher{}, NewMetrics())
	if er := pop.ExpectedRate(); math.Abs(er-4.0/7.0) > 1e-9 {
		t.Fatalf("expected rate with default think time = %v, want 4/7", er)
	}
	if pop.Browsers()[0].cfg.Mix.Name != "browsing" {
		t.Fatalf("default mix should be browsing, got %q", pop.Browsers()[0].cfg.Mix.Name)
	}
}

func TestOpenLoopGeneratesAtConfiguredRate(t *testing.T) {
	eng := simclock.NewEngine(10)
	disp := &immediateDispatcher{}
	metrics := NewMetrics()
	gen := NewOpenLoop(OpenLoopConfig{Region: "r", RatePerSec: 20}, simclock.NewRNG(2), disp, metrics)
	gen.Start(eng)
	gen.Start(eng) // double start is a no-op
	if err := eng.Run(5 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	gen.Stop()

	issued := float64(metrics.Issued("r"))
	want := 20.0 * 300
	if math.Abs(issued-want)/want > 0.1 {
		t.Fatalf("open loop issued %v requests, want ~%v", issued, want)
	}
}

func TestOpenLoopZeroRateDoesNothing(t *testing.T) {
	eng := simclock.NewEngine(11)
	metrics := NewMetrics()
	gen := NewOpenLoop(OpenLoopConfig{Region: "r", RatePerSec: 0}, simclock.NewRNG(2), &immediateDispatcher{}, metrics)
	gen.Start(eng)
	eng.RunUntilEmpty()
	if metrics.Issued("r") != 0 {
		t.Fatalf("zero-rate generator should not issue requests")
	}
}

func TestMetricsAccounting(t *testing.T) {
	m := NewMetrics()
	req := &cloudsim.Request{ID: 1, Arrival: 0}
	m.issued("a")
	m.record("a", cloudsim.Outcome{Request: req, Start: 0, End: 0.5})
	m.issued("a")
	m.record("a", cloudsim.Outcome{Request: req, Start: 0, End: 2.0}) // SLA violation
	m.issued("b")
	m.record("b", cloudsim.Outcome{Request: req, Dropped: true})
	m.recordTimeout("b")

	if m.Issued("") != 3 || m.Completed("") != 2 || m.Dropped("") != 1 || m.Timeouts("") != 1 {
		t.Fatalf("global counters wrong: %s", m)
	}
	if m.SLAViolations("a") != 1 || m.SLAViolations("") != 1 {
		t.Fatalf("SLA violation accounting wrong")
	}
	if m.Completed("a") != 2 || m.Dropped("b") != 1 {
		t.Fatalf("per-region counters wrong")
	}
	if got := m.MeanResponseTime("a"); math.Abs(got-1.25) > 1e-9 {
		t.Fatalf("mean response time = %v, want 1.25", got)
	}
	if m.ResponseTimeStdDev("a") <= 0 {
		t.Fatalf("stddev should be positive with two distinct samples")
	}
	if got := m.Regions(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("regions = %v", got)
	}
	if m.SuccessRatio("zzz") != 0 {
		t.Fatalf("success ratio of unknown region should be 0")
	}
	if m.String() == "" {
		t.Fatalf("metrics string should not be empty")
	}
}

// TestMetricsResetRefillsLikeFresh: a sink reset and refilled by Merge equals
// a fresh sink merged from the same source, and once its region entries
// exist the reset-and-merge cycle allocates nothing.
func TestMetricsResetRefillsLikeFresh(t *testing.T) {
	src := NewMetrics()
	req := &cloudsim.Request{ID: 1}
	src.issued("a")
	src.record("a", cloudsim.Outcome{Request: req, End: 0.3})
	src.issued("b")
	src.record("b", cloudsim.Outcome{Request: req, End: 2})
	src.observeExemplar(0.3, 7, 0.3)

	sink := NewMetrics()
	sink.Merge(src)
	sink.Merge(src)
	sink.recordTimeout("a")
	sink.Reset()
	sink.Merge(src)
	fresh := NewMetrics()
	fresh.Merge(src)
	if !reflect.DeepEqual(sink, fresh) {
		t.Fatalf("reset sink refilled to %s, fresh merge is %s", sink, fresh)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sink.Reset()
		sink.Merge(src)
	}); allocs != 0 {
		t.Fatalf("Reset+Merge allocates %.1f times, want 0", allocs)
	}
}

// Property: Pick always returns an interaction that exists in the mix with a
// strictly positive weight.
func TestMixPickProperty(t *testing.T) {
	m := ShoppingMix()
	valid := map[string]bool{}
	for _, e := range m.Entries {
		if e.Weight > 0 {
			valid[e.Name] = true
		}
	}
	f := func(seed uint64) bool {
		rng := simclock.NewRNG(seed)
		for i := 0; i < 20; i++ {
			if !valid[m.Pick(rng).Name] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ServiceFactor of every interaction in every mix is positive, so
// the VM service-time model never sees a non-positive demand.
func TestServiceFactorsPositive(t *testing.T) {
	for _, m := range []Mix{BrowsingMix(), ShoppingMix(), OrderingMix()} {
		for _, e := range m.Entries {
			if e.ServiceFactor <= 0 {
				t.Errorf("mix %s interaction %s has non-positive service factor", m.Name, e.Name)
			}
		}
	}
}

func BenchmarkMixPick(b *testing.B) {
	m := BrowsingMix()
	rng := simclock.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Pick(rng)
	}
}

func BenchmarkClosedLoopPopulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := simclock.NewEngine(uint64(i) + 1)
		disp := &immediateDispatcher{delay: 50 * simclock.Millisecond}
		pop := NewPopulation(PopulationConfig{Region: "r", Clients: 64, ThinkTimeMean: 2 * simclock.Second},
			simclock.NewRNG(uint64(i)), disp, NewMetrics())
		pop.Start(eng)
		_ = eng.Run(1 * simclock.Minute)
	}
}
