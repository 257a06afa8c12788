package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
)

// cohortStub is a dispatcher that completes every request after a fixed
// service delay and keeps weighted per-class tallies, keyed by service
// factor (every TPC-W interaction has its own).
type cohortStub struct {
	delay    simclock.Duration
	byClass  map[float64]uint64
	maxBatch int
	requests uint64
}

func newCohortStub(delay simclock.Duration) *cohortStub {
	return &cohortStub{delay: delay, byClass: map[float64]uint64{}}
}

func (s *cohortStub) Submit(eng *simclock.Engine, req *cloudsim.Request) {
	s.requests++
	s.byClass[req.ServiceFactor] += req.Weight()
	if req.Batch > s.maxBatch {
		s.maxBatch = req.Batch
	}
	arrival := req.Arrival
	eng.ScheduleFunc(s.delay, func(e *simclock.Engine) {
		req.Finish(e, cloudsim.Outcome{Request: req, Start: arrival, End: e.Now()})
	})
}

func runCohort(t *testing.T, cfg CohortConfig, horizon simclock.Duration) (*CohortPopulation, *cohortStub, *Metrics) {
	t.Helper()
	eng := simclock.NewEngine(1)
	stub := newCohortStub(50 * simclock.Millisecond)
	met := NewMetrics()
	c := NewCohortPopulation(cfg, stub, met)
	c.Start(eng)
	if err := eng.Run(horizon); err != nil && err != simclock.ErrHorizonReached {
		t.Fatal(err)
	}
	return c, stub, met
}

func TestCohortPopulationThroughputAndConservation(t *testing.T) {
	const clients = 10000
	cfg := tpcw(CohortConfig{Region: "r1", Clients: clients, TracerFraction: 0.01, Seed: 7})
	c, stub, met := runCohort(t, cfg, 60*simclock.Second)

	if got := c.TracerCount(); got != 100 {
		t.Fatalf("TracerCount = %d, want 100", got)
	}
	if got := c.cohort; got != clients-100 {
		t.Fatalf("CohortClients = %d, want %d", got, clients-100)
	}
	// Closed-loop conservation: every client is either thinking or waiting on
	// a batch in flight.
	if c.thinking+c.InFlight() != c.cohort {
		t.Fatalf("conservation violated: thinking %d + inflight %d != cohort %d",
			c.thinking, c.InFlight(), c.cohort)
	}
	if c.InFlight() < 0 || c.thinking < 0 {
		t.Fatalf("negative bucket: thinking %d, inflight %d", c.thinking, c.InFlight())
	}
	// Steady-state throughput of a closed loop with negligible response time:
	// clients/think interactions per second.
	want := float64(c.cfg.Clients) / c.cfg.ThinkTimeMean.Seconds() * 60
	got := float64(met.Issued("r1"))
	if math.Abs(got-want) > 0.10*want {
		t.Fatalf("issued %0.f interactions, want %.0f +/- 10%%", got, want)
	}
	// The compression must hold: batching keeps the event count far below
	// the interaction count.
	if stub.requests >= met.Issued("r1")/4 {
		t.Fatalf("compression too weak: %d requests for %d interactions", stub.requests, met.Issued("r1"))
	}
	if stub.maxBatch > 64 {
		t.Fatalf("batch %d exceeds default MaxBatch 64", stub.maxBatch)
	}
	// Tracers feed the latency series; batches must not.
	if met.ResponseSamples("r1") == 0 {
		t.Fatal("tracers recorded no response samples")
	}
	if met.ResponseSamples("r1") >= met.Completed("r1")/10 {
		t.Fatalf("latency series looks batch-fed: %d samples of %d completions",
			met.ResponseSamples("r1"), met.Completed("r1"))
	}
}

// TestCohortPopulationDeterministicReplay pins run-twice byte-identity of the
// whole cohort trajectory: counters, bucket states and the tracer latency
// moments must replay exactly from the same seed.
func TestCohortPopulationDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64, int, float64, float64) {
		cfg := tpcw(CohortConfig{Region: "r1", Clients: 50000, TracerFraction: 0.002, MaxBatch: 32, Seed: 99})
		c, stub, met := runCohort(t, cfg, 120*simclock.Second)
		return met.Issued("r1"), stub.requests, c.thinking, met.MeanResponseTime("r1"), met.read("r1").resp.StdDev()
	}
	i1, r1, t1, m1, s1 := run()
	i2, r2, t2, m2, s2 := run()
	if i1 != i2 || r1 != r2 || t1 != t2 || m1 != m2 || s1 != s2 {
		t.Fatalf("replay diverged: (%d,%d,%d,%g,%g) vs (%d,%d,%d,%g,%g)",
			i1, r1, t1, m1, s1, i2, r2, t2, m2, s2)
	}
}

// TestCohortSplitChiSquared checks that the sequential-conditional-binomial
// class split reproduces the mix weights: the per-class interaction counts
// aggregated over a run form a multinomial sample whose chi-squared statistic
// against the TPC-W browsing weights must pass at the 99.9% level (fixed
// seed, so the statistic is a constant, not a flaky draw).
func TestCohortSplitChiSquared(t *testing.T) {
	cfg := tpcw(CohortConfig{Region: "r1", Clients: 20000, Seed: 3})
	_, stub, _ := runCohort(t, cfg, 300*simclock.Second)

	mix := BrowsingMix()
	totalW := 0.0
	factors := map[float64]string{}
	for _, e := range mix.Entries {
		totalW += e.Weight
		if other, dup := factors[e.ServiceFactor]; dup {
			t.Fatalf("%s and %s share service factor %g, so the tallies cannot tell them apart", other, e.Name, e.ServiceFactor)
		}
		factors[e.ServiceFactor] = e.Name
	}
	var total uint64
	for _, n := range stub.byClass {
		total += n
	}
	if total < 100000 {
		t.Fatalf("sample too small for a chi-squared check: %d", total)
	}
	chi2, bins := 0.0, 0
	for _, e := range mix.Entries {
		if e.Weight <= 0 {
			continue
		}
		exp := float64(total) * e.Weight / totalW
		if exp < 5 {
			continue
		}
		d := float64(stub.byClass[e.ServiceFactor]) - exp
		chi2 += d * d / exp
		bins++
	}
	if bins < 10 {
		t.Fatalf("degenerate binning: %d bins", bins)
	}
	// 99.9th percentile of chi-squared with 13 degrees of freedom is 34.5.
	if chi2 > 40 {
		t.Fatalf("class split failed chi-squared: statistic %.2f over %d bins", chi2, bins)
	}
}

// TestCohortPopulationNoTracers: TracerFraction 0 must run pure-cohort with
// no latency samples and full client count in the buckets.
func TestCohortPopulationNoTracers(t *testing.T) {
	cfg := tpcw(CohortConfig{Region: "r1", Clients: 1000, Seed: 5})
	c, _, met := runCohort(t, cfg, 30*simclock.Second)
	if c.TracerCount() != 0 || c.tracers != nil {
		t.Fatalf("expected no tracers, got %d", c.TracerCount())
	}
	if c.cohort != 1000 {
		t.Fatalf("CohortClients = %d, want 1000", c.cohort)
	}
	if met.ResponseSamples("r1") != 0 {
		t.Fatalf("pure-cohort run recorded %d latency samples", met.ResponseSamples("r1"))
	}
	if met.Issued("r1") == 0 {
		t.Fatal("cohort issued nothing")
	}
}

// TestCohortPopulationStop: after Stop, in-flight batches drain back into the
// think bucket and no new interactions are issued.
func TestCohortPopulationStop(t *testing.T) {
	eng := simclock.NewEngine(1)
	stub := newCohortStub(50 * simclock.Millisecond)
	met := NewMetrics()
	c := NewCohortPopulation(tpcw(CohortConfig{Region: "r1", Clients: 5000, Seed: 11}), stub, met)
	c.Start(eng)
	eng.ScheduleFunc(10*simclock.Second, func(*simclock.Engine) { c.Stop() })
	if err := eng.Run(20 * simclock.Second); err != nil && err != simclock.ErrHorizonReached {
		t.Fatal(err)
	}
	if c.running {
		t.Fatal("cohort still running after Stop")
	}
	if c.thinking != c.cohort {
		t.Fatalf("in-flight batches did not drain: thinking %d of %d", c.thinking, c.cohort)
	}
	if met.Issued("r1") != met.Completed("r1")+met.Dropped("r1") {
		t.Fatalf("issued %d != completed %d + dropped %d", met.Issued("r1"), met.Completed("r1"), met.Dropped("r1"))
	}
}

// tpcwThink is TPC-W's mean think time, the value deployments run with.
const tpcwThink = 7 * simclock.Second

// tpcw fills the numeric fields a cohort test leaves at 0 with the values
// acm.Config.WithDefaults gives a deployment: TPC-W's think time, a 1 s tick
// and batches of up to 64.
func tpcw(c CohortConfig) CohortConfig {
	if c.ThinkTimeMean == 0 {
		c.ThinkTimeMean = tpcwThink
	}
	if c.Tick == 0 {
		c.Tick = simclock.Second
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	return c
}

// TestUnfilledCohortIsRejected: a cohort takes its numeric fields as given,
// so a 0 tick panics by name instead of ticking forever at one instant.
func TestUnfilledCohortIsRejected(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   CohortConfig
	}{
		{"ThinkTimeMean", CohortConfig{Tick: simclock.Second, MaxBatch: 64}},
		{"Tick", CohortConfig{ThinkTimeMean: tpcwThink, MaxBatch: 64}},
		{"MaxBatch", CohortConfig{ThinkTimeMean: tpcwThink, Tick: simclock.Second}},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.field+" must be > 0") {
					t.Errorf("%s 0: recovered %v, want a panic naming it", c.field, r)
				}
			}()
			c.cfg.Region, c.cfg.Clients = "r1", 100
			NewCohortPopulation(c.cfg, DispatcherFunc(func(*simclock.Engine, *cloudsim.Request) {}), NewMetrics())
		}()
	}
}
