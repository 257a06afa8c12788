package workload

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
	"repro/internal/tracing"
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
		if err := m.ValidateShape(); err != nil {
			t.Errorf("mix %s failed validation: %v", m.Name, err)
		}
		if len(m.Entries) != 14 {
			t.Errorf("mix %s has %d interactions, want the 14 TPC-W interactions", m.Name, len(m.Entries))
		}
	}
	if err := (Mix{Name: "empty"}).ValidateShape(); err == nil {
		t.Errorf("empty mix should fail validation")
	}
	neg := Mix{Name: "neg", Entries: []Interaction{{Name: "home", Weight: -1}}}
	if err := neg.ValidateShape(); err == nil {
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
	p := BrowsingMix().Picker()
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[p.Pick(rng).Name]++
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

// TestMixPickDrawsChoiceAllocationFree pins a prepared mix to exactly the
// interaction a weighted choice over the mix weights picks, including the
// uniform fallback of an all-zero mix, and to zero allocations per pick.
func TestMixPickDrawsChoiceAllocationFree(t *testing.T) {
	zero := Mix{Name: "zero", Entries: Interactions()}
	for _, m := range []Mix{BrowsingMix(), ShoppingMix(), OrderingMix(), zero} {
		weights := make([]float64, len(m.Entries))
		for i, e := range m.Entries {
			weights[i] = e.Weight
		}
		choice := simclock.NewWeights(weights)
		p := m.Picker()
		a, b := simclock.NewRNG(5), simclock.NewRNG(5)
		for i := 0; i < 2000; i++ {
			if got, want := p.Pick(a).Name, m.Entries[choice.Pick(b)].Name; got != want {
				t.Fatalf("mix %s draw %d: pick = %s, choice = %s", m.Name, i, got, want)
			}
		}
	}
	p, rng := BrowsingMix().Picker(), simclock.NewRNG(5)
	if allocs := testing.AllocsPerRun(1000, func() { p.Pick(rng) }); allocs != 0 {
		t.Fatalf("pick allocates %.1f times per call, want 0", allocs)
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
	b := NewBrowser("eb1", BrowserConfig{
		Region: "region1", Mix: BrowsingMix(),
		ThinkTimeMean: 2 * simclock.Second,
	}, eng.RNG().Fork(), disp, metrics)

	b.Start(eng)
	if !b.running {
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
	b := NewBrowser("eb1", BrowserConfig{Region: "r", Mix: BrowsingMix(), ThinkTimeMean: simclock.Second},
		eng.RNG().Fork(), disp, metrics)
	b.Start(eng)
	eng.ScheduleFunc(10*simclock.Second, func(*simclock.Engine) { b.Stop() })
	eng.RunUntilEmpty()
	if b.running {
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

// TestBrowserReleasesEachRequestOnce covers the request-ownership rule on
// the browser's path: a completion counts once and releases the request, a
// second completion of it panics with ErrRequestReleased without counting,
// and the browser's next interaction reuses the released request instead of
// allocating one.
func TestBrowserReleasesEachRequestOnce(t *testing.T) {
	eng := simclock.NewEngine(8)
	disp := &holdDispatcher{}
	met := NewMetrics()
	b := NewBrowser("eb1", BrowserConfig{Region: "r", Mix: BrowsingMix(), ThinkTimeMean: simclock.Second},
		eng.RNG().Fork(), disp, met)
	b.Start(eng)
	for len(disp.held) < 1 && eng.Step() {
	}
	if len(disp.held) != 1 {
		t.Fatalf("held %d requests, want 1", len(disp.held))
	}
	first := disp.held[0]
	first.Finish(eng, cloudsim.Outcome{Request: first, Start: eng.Now(), End: eng.Now()})
	func() {
		defer func() {
			if r := recover(); r != cloudsim.ErrRequestReleased {
				t.Fatalf("a second completion recovered %v, want ErrRequestReleased", r)
			}
		}()
		first.Finish(eng, cloudsim.Outcome{Request: first, Start: eng.Now(), End: eng.Now()})
	}()
	if met.Completed("r") != 1 {
		t.Fatalf("completed %d, want the one completion counted once", met.Completed("r"))
	}
	for len(disp.held) < 2 && eng.Step() {
	}
	if len(disp.held) != 2 || disp.held[1] != first {
		t.Fatal("the released request must be reused before any new one is allocated")
	}
}

// TestBrowserSizeClass pins Browser at 56 bytes: a megaregion holds
// thousands of browsers in one slice, so a new field must justify the growth.
func TestBrowserSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Browser{}); size > 56 {
		t.Fatalf("unsafe.Sizeof(Browser{}) = %d, want <= 56", size)
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

	if pop.Size() != 32 || len(pop.browsers) != 32 {
		t.Fatalf("population size = %d, want 32", pop.Size())
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

func TestPopulationDefaultsToBrowsingMix(t *testing.T) {
	pop := NewPopulation(PopulationConfig{Region: "r", Clients: 4, ThinkTimeMean: tpcwThink}, simclock.NewRNG(1), &immediateDispatcher{}, NewMetrics())
	if pop.browsers[0].home.cfg.Mix.Name != "browsing" {
		t.Fatalf("default mix should be browsing, got %q", pop.browsers[0].home.cfg.Mix.Name)
	}
}

// TestZeroThinkTimeIsRejected: a population takes its think time as given,
// so a 0 panics by name instead of running on a silent 7 s.
func TestZeroThinkTimeIsRejected(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "ThinkTimeMean must be > 0") {
			t.Fatalf("recovered %v, want a panic naming ThinkTimeMean", r)
		}
	}()
	NewPopulation(PopulationConfig{Region: "r", Clients: 4}, simclock.NewRNG(1), &immediateDispatcher{}, NewMetrics())
}

// TestPopulationBrowserNames pins the browser identifiers, the tracer's
// stream identities, to "<prefix>-eb%03d" across the digit-count boundaries,
// and checks that a population whose tracer samples nothing keeps none.
func TestPopulationBrowserNames(t *testing.T) {
	sampling := tracing.NewTracer(1, 0.5)
	pop := NewPopulation(PopulationConfig{Region: "r", Clients: 1001, IDPrefix: "r-s3", ThinkTimeMean: tpcwThink, Tracer: sampling}, simclock.NewRNG(1), &immediateDispatcher{}, NewMetrics())
	for i := range pop.browsers {
		if got, want := pop.browsers[i].name(), fmt.Sprintf("r-s3-eb%03d", i+1); got != want {
			t.Fatalf("browser %d: name %q, want %q", i, got, want)
		}
	}
	pop = NewPopulation(PopulationConfig{Region: "region2", Clients: 1, ThinkTimeMean: tpcwThink, Tracer: sampling}, simclock.NewRNG(1), &immediateDispatcher{}, NewMetrics())
	if name := pop.browsers[0].name(); name != "region2-eb001" {
		t.Fatalf("name without a prefix = %q, want region2-eb001", name)
	}
	for _, tr := range []*tracing.Tracer{nil, tracing.NewTracer(1, 0)} {
		pop = NewPopulation(PopulationConfig{Region: "r", Clients: 3, ThinkTimeMean: tpcwThink, Tracer: tr}, simclock.NewRNG(1), &immediateDispatcher{}, NewMetrics())
		if pop.browsers[0].home.names != nil {
			t.Fatalf("tracer %v: names kept although nothing is sampled", tr)
		}
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
	a, b := m.sink("a"), m.sink("b")
	a.issued()
	a.record(cloudsim.Outcome{Request: req, Start: 0, End: 0.5})
	a.issued()
	a.record(cloudsim.Outcome{Request: req, Start: 0, End: 2.0}) // SLA violation
	b.issued()
	b.record(cloudsim.Outcome{Request: req, Dropped: true})

	if m.Issued("") != 3 || m.Completed("") != 2 || m.Dropped("") != 1 || m.Timeouts("") != 0 {
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
	if m.read("a").resp.StdDev() <= 0 {
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

// TestMetricsReadsCreateNoEntry: every reader reports zeros for a region
// that never recorded anything and leaves Regions, and with it the label set
// the deployment exports, unchanged.
func TestMetricsReadsCreateNoEntry(t *testing.T) {
	m := NewMetrics()
	a := m.sink("a")
	a.issued()
	a.record(cloudsim.Outcome{Request: &cloudsim.Request{ID: 1}, End: 0.4})
	counts := []uint64{m.Issued("zzz"), m.Completed("zzz"), m.Dropped("zzz"), m.Timeouts("zzz"),
		m.SLAViolations("zzz"), m.ResponseSamples("zzz")}
	for i, c := range counts {
		if c != 0 {
			t.Fatalf("counter %d of an unknown region = %d, want 0", i, c)
		}
	}
	if m.MeanResponseTime("zzz") != 0 || m.read("zzz").resp.StdDev() != 0 || m.SuccessRatio("zzz") != 0 {
		t.Fatalf("moments of an unknown region are not zero")
	}
	if got := m.Regions(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("reads changed the regions: %v, want [a]", got)
	}
}

// TestRegionSinkSurvivesReset: a handle resolved before a Reset keeps
// recording into the region's entry afterwards, and a handle that never
// recorded creates no entry.
func TestRegionSinkSurvivesReset(t *testing.T) {
	m := NewMetrics()
	a, idle := m.sink("a"), m.sink("idle")
	a.issued()
	m.Reset()
	a.issued()
	a.issued()
	if m.Issued("a") != 2 || m.Issued("") != 2 {
		t.Fatalf("after Reset: issued a=%d global=%d, want 2 and 2", m.Issued("a"), m.Issued(""))
	}
	if got := m.Regions(); len(got) != 1 || got[0] != "a" || idle.rm != nil {
		t.Fatalf("regions = %v, want only the recording one", got)
	}
}

// TestMetricsResetRefillsLikeFresh: a sink reset and refilled by Merge equals
// a fresh sink merged from the same source, and once its region entries
// exist the reset-and-merge cycle allocates nothing.
func TestMetricsResetRefillsLikeFresh(t *testing.T) {
	src := NewMetrics()
	req := &cloudsim.Request{ID: 1}
	a, b := src.sink("a"), src.sink("b")
	a.issued()
	a.record(cloudsim.Outcome{Request: req, End: 0.3})
	b.issued()
	b.record(cloudsim.Outcome{Request: req, End: 2})
	src.observeExemplar(0.3, 7, 0.3)

	sink := NewMetrics()
	sink.Merge(src)
	sink.Merge(src)
	extra := sink.sink("a")
	extra.issued()
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
	p := m.Picker()
	f := func(seed uint64) bool {
		rng := simclock.NewRNG(seed)
		for i := 0; i < 20; i++ {
			if !valid[p.Pick(rng).Name] {
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

// TestDefaultMixesAreFresh: each mix constructor returns new entries, so a
// caller that edits a returned mix cannot change the next caller's.
func TestDefaultMixesAreFresh(t *testing.T) {
	for _, mk := range []func() Mix{BrowsingMix, ShoppingMix, OrderingMix} {
		want := mk()
		got := mk()
		for i := range got.Entries {
			got.Entries[i].Weight = -1
			got.Entries[i].ServiceFactor = 0
		}
		if again := mk(); !reflect.DeepEqual(again, want) {
			t.Fatalf("%s: editing a returned mix changed the next call's result", want.Name)
		}
	}
}
