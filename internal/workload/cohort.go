package workload

import (
	"fmt"
	"math"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
	"repro/internal/tracing"
)

// This file implements cohort-compressed client populations: N statistically
// identical closed-loop clients represented as counted state buckets instead
// of N browser state machines.  The think-state bucket holds a single integer
// — how many clients are currently thinking — and on every tick the number of
// clients whose exponential think time expires is drawn by a binomial split
// (the per-tick transition probability of the memoryless think time is
// p = 1 - exp(-tick/mean)).  The transitioning clients are then split across
// the TPC-W interaction classes by sequential conditional binomials (an exact
// multinomial draw over the mix weights) and submitted as batched requests
// through the ordinary Dispatcher path, so sharded regions, forward plans and
// the GSLB director all work unchanged.  Event volume and memory scale with
// the number of batches per tick, not with the client count, which is what
// makes 10^6+ effective clients per region affordable.
//
// Aggregate accounting (issued/completed/dropped, and therefore the measured
// arrival rate lambda) comes from the batch weights.  The response-time
// series cannot: a batch observes one queueing delay, not a latency sample
// per client.  A small individually simulated "tracer" sub-population —
// ordinary Browsers carved out of the cohort — feeds the per-request latency
// distribution, keeping response-time figures and RTTF features intact.
//
// Determinism: the cohort draws every split from its own RNG stream, derived
// from the config seed via simclock.DeriveSeed, and the tracers fork from a
// sibling stream.  All state transitions happen on the engine (or shard
// sub-engine) the cohort was started on; completions arriving from foreign
// shards are rehomed by the deployment's dispatcher exactly as browser
// completions are.  The whole trajectory is therefore a pure function of
// (CohortConfig, seed), byte-identical for any worker count.

// CohortConfig describes one cohort-compressed client population.
type CohortConfig struct {
	// Region is the region the clients connect to; it labels the
	// population's metrics and traces.
	Region string
	// Clients is the number of effective clients, tracers included.
	Clients int
	// Mix is the interaction mix (BrowsingMix when zero-valued).
	Mix Mix
	// ThinkTimeMean is the mean exponential think time (TPC-W default 7 s
	// when zero).
	ThinkTimeMean simclock.Duration
	// Tick is the state-split cadence (1 s when zero).  Shorter ticks track
	// the think-time distribution more finely at proportionally more events.
	Tick simclock.Duration
	// MaxBatch caps how many interactions one batched request stands for
	// (64 when zero).  Smaller batches spread load across more VMs at more
	// events per tick.
	MaxBatch int
	// TracerFraction is the fraction of Clients simulated individually to
	// feed the response-time series.  Zero means no tracers (aggregate
	// counters only); any positive fraction keeps at least one tracer.
	TracerFraction float64
	// RampUp spreads the tracer browser starts over this window.  The cohort
	// itself needs no ramp: the binomial split starts at the steady-state
	// transition rate on the first tick.
	RampUp simclock.Duration
	// IDPrefix prefixes the tracer browser identifiers ("<region>-tracer"
	// when empty).  Deployments that split one region's cohort across engine
	// shards use it to keep tracer IDs unique per shard.
	IDPrefix string
	// Seed is the base seed of the cohort's derived RNG streams (split
	// stream and tracer stream).
	Seed uint64
	// Tracer, when non-nil, samples batches and tracer-browser requests into
	// the span layer.  Batches use the "<IDPrefix>-batch" stream identity
	// (unique per shard slice), tracer browsers their own browser IDs.
	Tracer *tracing.Tracer
}

// withDefaults fills zero fields.
func (c CohortConfig) withDefaults() CohortConfig {
	if c.Clients < 0 {
		c.Clients = 0
	}
	if c.Mix.Name == "" {
		c.Mix = BrowsingMix()
	}
	if c.ThinkTimeMean <= 0 {
		c.ThinkTimeMean = 7 * simclock.Second
	}
	if c.Tick <= 0 {
		c.Tick = 1 * simclock.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.TracerFraction < 0 {
		c.TracerFraction = 0
	}
	if c.TracerFraction > 1 {
		c.TracerFraction = 1
	}
	if c.IDPrefix == "" {
		c.IDPrefix = c.Region + "-tracer"
	}
	return c
}

// CohortPopulation is a cohort-compressed closed-loop client population plus
// its tracer sub-population.
type CohortPopulation struct {
	cfg    CohortConfig
	rng    *simclock.RNG // transition + class-split stream
	target Dispatcher
	sink   regionSink

	tracers *Population
	cohort  int // cohort-modelled clients (Clients minus tracers)

	classes []Interaction // positive-weight interactions of the mix
	weights []float64     // their weights
	counts  []int         // scratch: per-class transition counts

	// Batches come from pool and go back at the end of onDone, which is
	// built once; batchStream is the tracer stream identity of the batches.
	pool        cloudsim.RequestPool
	onDone      func(cloudsim.Outcome)
	batchStream string

	running  bool
	thinking int // cohort clients currently in the think bucket
	nextID   uint64
}

// NewCohortPopulation builds a cohort population.  All clients share the
// provided metrics sink; the tracer browsers are constructed immediately so
// the split between cohort and tracers is fixed at build time.
func NewCohortPopulation(cfg CohortConfig, target Dispatcher, metrics *Metrics) *CohortPopulation {
	cfg = cfg.withDefaults()
	if metrics == nil {
		metrics = NewMetrics()
	}
	tracerCount := int(math.Round(float64(cfg.Clients) * cfg.TracerFraction))
	if cfg.TracerFraction > 0 && tracerCount == 0 && cfg.Clients > 0 {
		tracerCount = 1
	}
	if tracerCount > cfg.Clients {
		tracerCount = cfg.Clients
	}
	c := &CohortPopulation{
		cfg:    cfg,
		rng:    simclock.NewStreamRNG(cfg.Seed, 0),
		target: target,
		sink:   metrics.sink(cfg.Region),
		cohort: cfg.Clients - tracerCount,

		batchStream: cfg.IDPrefix + "-batch",
	}
	c.onDone = c.complete
	for _, it := range cfg.Mix.Entries {
		if it.Weight > 0 {
			c.classes = append(c.classes, it)
			c.weights = append(c.weights, it.Weight)
		}
	}
	c.counts = make([]int, len(c.classes))
	if tracerCount > 0 {
		c.tracers = NewPopulation(PopulationConfig{
			Region:        cfg.Region,
			Clients:       tracerCount,
			Mix:           cfg.Mix,
			ThinkTimeMean: cfg.ThinkTimeMean,
			RampUp:        cfg.RampUp,
			IDPrefix:      cfg.IDPrefix,
			Tracer:        cfg.Tracer,
		}, simclock.NewStreamRNG(cfg.Seed, 1), target, metrics)
	}
	return c
}

// TracerCount returns the number of individually simulated tracer browsers.
func (c *CohortPopulation) TracerCount() int {
	if c.tracers == nil {
		return 0
	}
	return c.tracers.Size()
}

// MaxBatch returns the most interactions one of the population's batched
// requests stands for: CohortConfig.MaxBatch with its default resolved.
func (c *CohortPopulation) MaxBatch() int { return c.cfg.MaxBatch }

// InFlight returns how many cohort clients are waiting on a batch in flight.
func (c *CohortPopulation) InFlight() int { return c.cohort - c.thinking }

// Start begins the cohort tick loop and launches the tracer browsers.  The
// first tick fires after a deterministic random fraction of the tick period
// so cohorts sharing an engine do not split in lockstep.
func (c *CohortPopulation) Start(eng *simclock.Engine) {
	if c.running {
		return
	}
	c.running = true
	c.thinking = c.cohort
	if c.tracers != nil {
		c.tracers.Start(eng)
	}
	if c.cohort > 0 {
		first := simclock.Duration(c.rng.Uniform(0, c.cfg.Tick.Seconds()))
		eng.ScheduleFunc(first, c.tick)
	}
}

// Stop halts the tick loop and the tracer browsers.  Batches in flight still
// complete and return their clients to the think bucket.
func (c *CohortPopulation) Stop() {
	c.running = false
	if c.tracers != nil {
		c.tracers.Stop()
	}
}

// tick performs one state split: draw how many thinking clients transition,
// split them across interaction classes, and submit the batches.
func (c *CohortPopulation) tick(eng *simclock.Engine) {
	if !c.running {
		return
	}
	p := 1 - math.Exp(-c.cfg.Tick.Seconds()/c.cfg.ThinkTimeMean.Seconds())
	if k := c.rng.Binomial(c.thinking, p); k > 0 {
		c.split(k)
		for i := range c.classes {
			c.emit(eng, i, c.counts[i])
		}
	}
	eng.ScheduleFunc(c.cfg.Tick, c.tick)
}

// split draws an exact multinomial partition of k transitioning clients over
// the mix weights using sequential conditional binomials: class i receives
// Binomial(remaining, w_i / wRemaining), and the last class takes whatever is
// left, so the counts always sum to k.
func (c *CohortPopulation) split(k int) {
	remaining := k
	wRem := 0.0
	for _, w := range c.weights {
		wRem += w
	}
	for i, w := range c.weights {
		if i == len(c.weights)-1 {
			c.counts[i] = remaining
			break
		}
		n := 0
		if remaining > 0 {
			n = c.rng.Binomial(remaining, w/wRem)
		}
		c.counts[i] = n
		remaining -= n
		wRem -= w
	}
}

// emit submits count interactions of one class as batches of at most
// MaxBatch.  Each batch moves its clients out of the think bucket until the
// batch completes (served or dropped — the closed loop must not leak clients
// either way).
func (c *CohortPopulation) emit(eng *simclock.Engine, class, count int) {
	it := c.classes[class]
	for count > 0 {
		b := count
		if b > c.cfg.MaxBatch {
			b = c.cfg.MaxBatch
		}
		count -= b
		c.thinking -= b
		c.nextID++
		n := uint64(b)
		req := c.pool.Get()
		req.ID = c.nextID
		req.ServiceFactor = it.ServiceFactor
		req.Arrival = eng.Now()
		req.Batch = b
		req.Trace = c.cfg.Tracer.Start(c.batchStream, c.nextID, n, eng.Now())
		req.OnDone = c.onDone
		c.sink.issuedN(n)
		c.target.Submit(eng, req)
	}
}

// complete is every batch's completion callback: it returns the batch's
// clients to the think bucket and, as its last action, releases the request.
func (c *CohortPopulation) complete(o cloudsim.Outcome) {
	req := o.Request
	n := uint64(req.Batch)
	sealTrace(req.Trace, o)
	c.sink.recordBatch(o, n)
	c.thinking += int(n)
	c.pool.Put(req)
}

// String summarises the population for debugging.
func (c *CohortPopulation) String() string {
	return fmt.Sprintf("cohort[%s clients=%d tracers=%d thinking=%d inflight=%d]",
		c.cfg.Region, c.cfg.Clients, c.TracerCount(), c.thinking, c.InFlight())
}
