package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/gslb"
	"repro/internal/metrics"
	"repro/internal/pcam"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/tracing"
	wl "repro/internal/workload"
)

// The per-layer probes time the public calls of one layer at a time against
// stub neighbours, sized from the workload's deployment.  Every probe
// subtracts the events its own engine fired times the per-event cost at the
// queue depth they fired at, so each number is the layer's self time per
// unit of work.

// sizing is what the probes need to know about a workload's deployment.
type sizing struct {
	lanes, workers int
	// region is the workload's largest region; vmc its controller config.
	region cloudsim.RegionConfig
	vmc    pcam.Config
	// regionNames are the regions of the largest scenario.
	regionNames []string
	// director is the routing config (least-load over the regions when the
	// workload has no director, so the probe still prices a route).
	director        gslb.Config
	browsersPerLane int
	cohortPerLane   int
	think, tick     simclock.Duration
	maxBatch        int
	// depth and children come from the traced op.
	depth, children int
}

// sizingFor sizes the probes from the workload's largest scenario (the one
// with the most VMs) and the traced op's counts.
func sizingFor(w workload, c *traceCounts) (sizing, error) {
	var sc experiment.Scenario
	vms := -1
	for _, r := range w.runs {
		s, err := buildScenario(r, verifySeed, w.horizon, false)
		if err != nil {
			return sizing{}, err
		}
		n := 0
		for _, rs := range s.Regions {
			n += rs.Region.InitialActive + rs.Region.InitialStandby
		}
		if n > vms {
			sc, vms = s, n
		}
	}
	sz := sizing{
		lanes:       1,
		workers:     1,
		vmc:         sc.VMC,
		regionNames: sc.RegionNames(),
		director:    sc.GSLB,
		think:       sc.ThinkTime,
		tick:        sc.CohortTick,
		maxBatch:    sc.CohortMaxBatch,
		depth:       max(1, int(c.QueueDepth+0.5)),
		children:    max(1, int(c.Children)/len(w.runs)),
	}
	if epochal(sc) {
		sz.lanes = 0
		for _, rs := range sc.Regions {
			sz.lanes += max(1, rs.Region.Shards)
		}
		sz.workers = max(1, min(sc.EventWorkers, sz.lanes))
	}
	browsers, cohort := sc.GlobalClients, sc.CohortClients
	for _, rs := range sc.Regions {
		browsers += rs.Clients
		cohort += rs.CohortClients
		if total := rs.Region.InitialActive + rs.Region.InitialStandby; total > sz.region.InitialActive+sz.region.InitialStandby {
			sz.region = rs.Region
		}
	}
	// acm simulates 1% of every cohort as individual tracer browsers.
	browsers += cohort / 100
	sz.browsersPerLane = max(1, browsers/sz.lanes)
	sz.cohortPerLane = max(1000, cohort/sz.lanes)
	if !sz.director.Enabled() {
		sz.director = gslb.Config{Policy: gslb.PolicyLeastLoad}
	}
	if sz.think <= 0 {
		sz.think = 7 * simclock.Second
	}
	return sz, nil
}

// probeCosts are the self costs per unit of work of every layer.
type probeCosts struct {
	EventNs    float64 // per event fired (schedule + pop + fire)
	BarrierNs  float64 // per epoch barrier
	PostNs     float64 // per mailbox post delivered
	SubmitNs   float64 // per request: dispatch, VM service, completion
	SubmitB    float64
	TickNs     float64 // per VMC control tick
	BrowserNs  float64 // per request issued by an individual browser
	BrowserB   float64
	CohortNs   float64 // per cohort batch issued
	RouteNs    float64 // per director route
	GSLBTickNs float64 // per director probe tick
	StepNs     float64 // per control-loop era step
	RecordNs   float64 // per recorded series point
	PublishNs  float64 // per gauge child set
	SpanNs     float64 // per span-layer call (start, event, span, seal)
}

// probeMeasurements is the number of measurements runProbes makes: 13
// probes plus the event cost at up to five queue depths.
const probeMeasurements = 18

// sample is one timed round of a probe: host time, units of work, the engine
// events it fired and their mean queue depth, and the bytes it allocated.
type sample struct {
	ns, units float64
	events    uint64
	depth     float64
	bytes     uint64
}

// depthMeter samples an engine's queue depth from a probe's harness.
type depthMeter struct{ sum, n float64 }

func (d *depthMeter) observe(e *simclock.Engine) { d.sum, d.n = d.sum+float64(e.Pending()), d.n+1 }

func (d *depthMeter) mean() float64 {
	if d.n == 0 {
		return 1
	}
	return d.sum / d.n
}

// timed runs fn once, measuring its host time and allocation.  fn returns
// the units of work it did and the engine events it fired.
func timed(fn func() (units float64, events uint64)) sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	units, events := fn()
	ns := float64(time.Since(t0).Nanoseconds())
	runtime.ReadMemStats(&m1)
	return sample{ns: ns, units: max(units, 1), events: events, bytes: m1.TotalAlloc - m0.TotalAlloc}
}

// prober runs measurements of a fixed budget each and prices engine events
// with the hold model, memoised by queue depth.
type prober struct {
	each    time.Duration
	eventNs map[int]float64
}

// eventCost is the hold-model cost of one event at the given queue depth.
func (pr *prober) eventCost(depth float64) float64 {
	d := max(1, int(math.Round(depth)))
	ns, ok := pr.eventNs[d]
	if !ok {
		ns, _ = pr.measure(eventRound(d))
		pr.eventNs[d] = ns
	}
	return ns
}

// measure repeats round until the budget is spent (at least once) and
// returns the medians of its per-unit self time and allocation.
func (pr *prober) measure(round func() sample) (ns, bytes float64) {
	var samples []sample
	for start := time.Now(); len(samples) == 0 || time.Since(start) < pr.each; {
		samples = append(samples, round())
	}
	nsv := make([]float64, len(samples))
	bv := make([]float64, len(samples))
	for i, s := range samples {
		self := s.ns
		if s.events > 0 {
			self -= float64(s.events) * pr.eventCost(s.depth)
		}
		nsv[i] = self / s.units
		bv[i] = float64(s.bytes) / s.units
	}
	return median(nsv), median(bv)
}

// runProbes measures every layer's self cost, spending about budget in total.
func runProbes(sz sizing, budget time.Duration) (probeCosts, error) {
	pr := &prober{each: budget / probeMeasurements, eventNs: map[int]float64{}}
	var p probeCosts
	p.EventNs = pr.eventCost(float64(sz.depth))
	p.BarrierNs, _ = pr.measure(barrierRound(sz.lanes, sz.workers))
	p.PostNs, _ = pr.measure(postRound(sz.lanes, sz.workers))
	submit, err := submitRound(sz.region)
	if err != nil {
		return p, err
	}
	p.SubmitNs, p.SubmitB = pr.measure(submit)
	tick, err := tickRound(sz.region, sz.vmc)
	if err != nil {
		return p, err
	}
	p.TickNs, _ = pr.measure(tick)
	p.BrowserNs, p.BrowserB = pr.measure(browserRound(sz.browsersPerLane, sz.think))
	p.CohortNs, _ = pr.measure(cohortRound(sz))
	route, gtick, err := directorRounds(sz.director, sz.regionNames)
	if err != nil {
		return p, err
	}
	p.RouteNs, _ = pr.measure(route)
	p.GSLBTickNs, _ = pr.measure(gtick)
	step, err := stepRound(sz.regionNames)
	if err != nil {
		return p, err
	}
	p.StepNs, _ = pr.measure(step)
	p.RecordNs, _ = pr.measure(recordRound)
	p.PublishNs, _ = pr.measure(publishRound(sz.children))
	p.SpanNs, _ = pr.measure(spanRound)
	return p, nil
}

// eventRound is the hold model: a queue of depth pending events, each firing
// event scheduling its successor, so every Step is one pop, one fire and one
// push at a constant heap depth.
func eventRound(depth int) func() sample {
	return func() sample {
		eng := simclock.NewEngine(1)
		rng := simclock.NewRNG(2)
		var hold func(*simclock.Engine)
		hold = func(e *simclock.Engine) { e.ScheduleFunc(simclock.Duration(rng.Exp(1)), hold) }
		for i := 0; i < depth; i++ {
			eng.ScheduleFunc(simclock.Duration(rng.Exp(1)), hold)
		}
		const steps = 20000
		return timed(func() (float64, uint64) {
			for i := 0; i < steps; i++ {
				eng.Step()
			}
			return steps, 0
		})
	}
}

// probeEpochs is the number of epochs an epoch-engine round runs.
const probeEpochs = 2000

// barrierRound runs a sharded engine whose lanes hold no events, so every
// epoch costs exactly its barrier: the shard fan-out, the wait, the mailbox
// drain and the control timeline.  Units are epochs.
func barrierRound(lanes, workers int) func() sample {
	return func() sample {
		se := simclock.NewShardedEngine(lanes, 1, 0, workers)
		return timed(func() (float64, uint64) {
			_ = se.Run(probeEpochs * se.Epoch()) // nil: nothing is pending
			return probeEpochs, 0
		})
	}
}

// epochRound runs a sharded engine with one event per lane per epoch, each
// posting posts no-op mailbox messages to the next lane.  Units are epochs.
func epochRound(lanes, workers, posts int) sample {
	se := simclock.NewShardedEngine(lanes, 1, 0, workers)
	epoch := se.Epoch()
	noop := func(*simclock.Engine) {}
	for i := 0; i < lanes; i++ {
		dst := (i + 1) % (lanes + 1)
		se.Shard(i).Ticker(epoch, func(e *simclock.Engine) {
			for k := 0; k < posts; k++ {
				se.Post(e, dst, noop)
			}
		})
	}
	return timed(func() (float64, uint64) {
		_ = se.Run(probeEpochs * epoch) // the tickers outlive the horizon
		return probeEpochs, se.Fired()
	})
}

// postRound prices one mailbox post as the difference between an epoch run
// that posts and an identical one that does not, so events and barriers
// cancel.
func postRound(lanes, workers int) func() sample {
	const posts = 32
	return func() sample {
		base := epochRound(lanes, workers, 0)
		with := epochRound(lanes, workers, posts)
		return sample{ns: with.ns - base.ns, units: probeEpochs * float64(lanes*posts), bytes: with.bytes - min(base.bytes, with.bytes)}
	}
}

// submitRound drives a fresh copy of the region with a Poisson arrival
// stream at half its healthy capacity through VMC.Submit, VM service and
// completion.  Units are requests; at most 200 per ACTIVE VM keeps every VM
// far from its failure point.
func submitRound(cfg cloudsim.RegionConfig) (func() sample, error) {
	if _, err := pcam.NewVMC(cloudsim.NewRegion(cfg, simclock.NewRNG(3)), pcam.OraclePredictor{}, pcam.Config{}); err != nil {
		return nil, err
	}
	return func() sample {
		region := cloudsim.NewRegion(cfg, simclock.NewRNG(3))
		vmc, _ := pcam.NewVMC(region, pcam.OraclePredictor{}, pcam.Config{}) // validated above
		eng := simclock.NewEngine(4)
		n := min(20000, 200*region.ActiveCount())
		gap := 1 / (0.5 * region.ComputeCapacity())
		issued := 0
		var depth depthMeter
		var arrive func(*simclock.Engine)
		arrive = func(e *simclock.Engine) {
			issued++
			depth.observe(e)
			vmc.Submit(e, &cloudsim.Request{ID: uint64(issued), ServiceFactor: 1, Arrival: e.Now(), OnDone: func(cloudsim.Outcome) {}})
			if issued < n {
				e.ScheduleFunc(simclock.Duration(e.RNG().Exp(gap)), arrive)
			}
		}
		eng.ScheduleFunc(0, arrive)
		s := timed(func() (float64, uint64) {
			eng.RunUntilEmpty()
			return float64(n), eng.Fired()
		})
		s.depth = depth.mean()
		return s
	}, nil
}

// tickRound runs the controller's own ticker on a fresh copy of the region
// with the workload's controller config, so every VMC.ControlTick sees an
// advancing clock.  Units are ticks.
func tickRound(cfg cloudsim.RegionConfig, vcfg pcam.Config) (func() sample, error) {
	if _, err := pcam.NewVMC(cloudsim.NewRegion(cfg, simclock.NewRNG(3)), pcam.OraclePredictor{}, vcfg); err != nil {
		return nil, err
	}
	ticks := max(1, 20000/(cfg.InitialActive+cfg.InitialStandby))
	return func() sample {
		vmc, _ := pcam.NewVMC(cloudsim.NewRegion(cfg, simclock.NewRNG(3)), pcam.OraclePredictor{}, vcfg) // validated above
		eng := simclock.NewEngine(4)
		vmc.Start(eng)
		s := timed(func() (float64, uint64) {
			_ = eng.Run(simclock.Duration(ticks) * vmc.Config().ControlInterval) // the ticker outlives the horizon
			return float64(vmc.Stats().ControlTicks), eng.Fired()
		})
		s.depth = float64(eng.Pending())
		return s
	}, nil
}

// stub is the stub dispatcher: it serves every request instantly and samples
// the engine's queue depth.
func stub(depth *depthMeter) wl.Dispatcher {
	return wl.DispatcherFunc(func(e *simclock.Engine, req *cloudsim.Request) {
		depth.observe(e)
		req.Finish(e, cloudsim.Outcome{Request: req, Start: e.Now(), End: e.Now()})
	})
}

// browserRound runs a population of individual browsers against the stub
// for about 20000 requests.  Units are issued requests.
func browserRound(clients int, think simclock.Duration) func() sample {
	horizon := think * simclock.Duration(max(1, 20000/clients))
	return func() sample {
		eng := simclock.NewEngine(5)
		met := wl.NewMetrics()
		var depth depthMeter
		pop := wl.NewPopulation(wl.PopulationConfig{Region: "probe", Clients: clients, ThinkTimeMean: think}, simclock.NewRNG(6), stub(&depth), met)
		s := timed(func() (float64, uint64) {
			pop.Start(eng)
			_ = eng.Run(horizon) // the browsers outlive the horizon
			pop.Stop()
			return float64(met.Issued("probe")), eng.Fired()
		})
		s.depth = depth.mean()
		return s
	}
}

// cohortRound runs one lane's cohort population (no tracers) against the
// stub for one simulated minute.  Units are batches issued.
func cohortRound(sz sizing) func() sample {
	return func() sample {
		eng := simclock.NewEngine(7)
		var depth depthMeter // one observation per batch
		c := wl.NewCohortPopulation(wl.CohortConfig{
			Region: "probe", Clients: sz.cohortPerLane, ThinkTimeMean: sz.think,
			Tick: sz.tick, MaxBatch: sz.maxBatch, Seed: 8,
		}, stub(&depth), wl.NewMetrics())
		s := timed(func() (float64, uint64) {
			c.Start(eng)
			_ = eng.Run(60 * simclock.Second) // the cohort outlives the horizon
			c.Stop()
			return depth.n, eng.Fired()
		})
		s.depth = depth.mean()
		return s
	}
}

// directorRounds price Table.RouteStream and Director.Tick over the
// workload's regions, with a stub telemetry sampler.
func directorRounds(cfg gslb.Config, regions []string) (route, tick func() sample, err error) {
	served := uint64(0)
	d, err := gslb.NewDirector(cfg, regions, nil, func(i int) cloudsim.Telemetry {
		served += 100
		return cloudsim.Telemetry{Region: regions[i], ActiveVMs: 10, BaselineActive: 10, Capacity: float64(10 * (i + 1)), Served: served}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("probe director: %w", err)
	}
	table := d.Tick(0)
	rng := simclock.NewRNG(9)
	route = func() sample {
		const n = 100000
		var rr uint64
		return timed(func() (float64, uint64) {
			for i := 0; i < n; i++ {
				table.RouteStream(0, rng, &rr)
			}
			return n, 0
		})
	}
	tick = func() sample {
		const n = 5000
		return timed(func() (float64, uint64) {
			for i := 0; i < n; i++ {
				d.Tick(simclock.Time(i))
			}
			return n, 0
		})
	}
	return route, tick, nil
}

// stepRound runs core.Loop.Step under policy 2.  Units are steps.
func stepRound(regions []string) (func() sample, error) {
	loop, err := core.NewLoop(regions, core.AvailableResources{}, 0.5)
	if err != nil {
		return nil, err
	}
	loop.SetKeepHistory(false)
	last := make([]float64, len(regions))
	entry := make([]float64, len(regions))
	for i := range last {
		last[i] = float64(1000 * (i + 1))
		entry[i] = 1 / float64(len(regions))
	}
	return func() sample {
		const n = 20000
		return timed(func() (float64, uint64) {
			for i := 0; i < n; i++ {
				if _, err := loop.Step(last, 100, entry); err != nil {
					panic(err) // the inputs are fixed and valid
				}
			}
			return n, 0
		})
	}, nil
}

// recordRound appends points round-robin to eight series of a fresh
// recorder.  Units are points.
func recordRound() sample {
	rec := trace.NewRecorder()
	sets := []string{"rmttf", "fraction"}
	series := []string{"region1", "region2", "region3", "region4"}
	const n = 100000
	return timed(func() (float64, uint64) {
		for i := 0; i < n; i++ {
			rec.Record(sets[i%2], series[(i/2)%4], float64(i), 1)
		}
		return n, 0
	})
}

// publishRound sets every child of a labelled gauge family in turn.  Units
// are Gauge.Set calls.
func publishRound(children int) func() sample {
	reg := metrics.NewRegistry()
	g := reg.Gauge(metrics.Opts{Name: "probe_gauge", Help: "publish probe", Labels: []string{"child"}})
	labels := make([]string, children)
	for i := range labels {
		labels[i] = fmt.Sprintf("c%d", i)
	}
	return func() sample {
		const n = 100000
		return timed(func() (float64, uint64) {
			for i := 0; i < n; i++ {
				g.Set(float64(i), labels[i%children])
			}
			return n, 0
		})
	}
}

// spanRound starts, annotates and seals traces on a tracer sampling every
// request.  Units are span-layer calls, five per trace.
func spanRound() sample {
	tr := tracing.NewTracer(10, 1)
	const n = 20000
	return timed(func() (float64, uint64) {
		for i := 0; i < n; i++ {
			at := simclock.Time(i)
			rt := tr.Start("probe", uint64(i), 1, at)
			rt.Event(tracing.EventMailbox, at, "")
			rt.Event(tracing.EventVMEnqueue, at, "")
			rt.Span(tracing.SpanForward, at, 0.01, "")
			rt.Seal(tracing.OutcomeOK, at, at, "vm", "region")
		}
		return 5 * n, 0
	})
}
