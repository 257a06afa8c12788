package workload

import (
	"fmt"
	"sort"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/tracing"
)

// Dispatcher is the entry point requests are submitted to: in the full system
// it is the load balancer of the cloud region the client is connected to
// (which may forward the request to another region according to the global
// forward plan).  Tests can plug in a single VM or a stub.
type Dispatcher interface {
	// Submit hands the request to the region's load balancer.  Implementations
	// must eventually invoke the request's OnDone callback (directly or through
	// the VM that serves it).
	Submit(eng *simclock.Engine, req *cloudsim.Request)
}

// DispatcherFunc adapts a function to the Dispatcher interface.
type DispatcherFunc func(eng *simclock.Engine, req *cloudsim.Request)

// Submit implements Dispatcher.
func (f DispatcherFunc) Submit(eng *simclock.Engine, req *cloudsim.Request) { f(eng, req) }

// BrowserConfig holds the knobs the emulated browsers of one population
// share; each browser keeps only its random stream and session state.
type BrowserConfig struct {
	// Region is the cloud region the browser is connected to; it labels the
	// population's metrics and traces.
	Region string
	// Mix is the interaction mix the browser draws from.
	Mix Mix
	// ThinkTimeMean is the mean of the exponentially distributed think time
	// between receiving a response and issuing the next interaction.  TPC-W
	// prescribes a mean of 7 seconds for emulated browsers, which
	// acm.Config.WithDefaults fills in; here it must be positive.
	ThinkTimeMean simclock.Duration
	// Tracer, when non-nil, samples this browser's requests into the
	// deployment's span layer.  The stream identity is the browser ID, so the
	// sampled set is a pure function of (tracer seed, browser ID, request
	// counter) — independent of event interleavings.
	Tracer *tracing.Tracer
}

// Browser is one emulated web browser running a closed-loop TPC-W session.
//
// Its requests come from the free list of its browserHome and go back to it
// at the end of their one completion callback.  The loop is closed, so a
// browser has at most one request in flight.
type Browser struct {
	home *browserHome
	rng  simclock.RNG

	nextReqID uint64
	index     int32 // position in the population, which names the browser
	running   bool
}

// browserHome is what the browsers of one population share: their
// configuration and names, the engine they issue on, the dispatcher they
// submit to, their region's metrics sink, the prepared interaction mix and
// the free list of their requests.  A population lives on one engine lane, so
// the engine is one and the free list is lane-local.
type browserHome struct {
	cfg      BrowserConfig
	names    []string // browser identifiers by index; nil when the tracer samples nothing
	eng      *simclock.Engine
	target   Dispatcher
	sink     regionSink
	mix      Picker
	requests cloudsim.RequestPool
}

// name returns the browser's identifier ("region1-eb007"), the tracer's
// stream identity; "" when the population's tracer samples nothing.
func (b *Browser) name() string {
	if b.home.names == nil {
		return ""
	}
	return b.home.names[b.index]
}

func newBrowserHome(cfg BrowserConfig, target Dispatcher, metrics *Metrics) *browserHome {
	if metrics == nil {
		metrics = NewMetrics()
	}
	if !(cfg.ThinkTimeMean > 0) {
		panic(fmt.Sprintf("workload: population %s: ThinkTimeMean must be > 0, got %v", cfg.Region, cfg.ThinkTimeMean))
	}
	return &browserHome{cfg: cfg, target: target, sink: metrics.sink(cfg.Region), mix: cfg.Mix.Picker()}
}

// browserIssue is a browser seen as its next-issue event, so scheduling it
// allocates nothing.
type browserIssue Browser

// Fire implements simclock.Event.
func (b *browserIssue) Fire(eng *simclock.Engine) { (*Browser)(b).issue(eng) }

// completeBrowserRequest is the completion callback of every browser
// request: the request names its browser as Issuer.
func completeBrowserRequest(o cloudsim.Outcome) { o.Request.Issuer.(*Browser).complete(o) }

// Start begins the closed loop: the first interaction is issued after a
// random fraction of the think time so that browsers do not fire in lockstep.
func (b *Browser) Start(eng *simclock.Engine) {
	if b.running {
		return
	}
	b.running = true
	initial := simclock.Duration(b.rng.Uniform(0, b.home.cfg.ThinkTimeMean.Seconds()))
	eng.Schedule(initial, (*browserIssue)(b))
}

// Stop ends the closed loop after the in-flight interaction (if any)
// completes.
func (b *Browser) Stop() { b.running = false }

// issue sends the next interaction.
func (b *Browser) issue(eng *simclock.Engine) {
	if !b.running {
		return
	}
	home := b.home
	it := home.mix.Pick(&b.rng)
	b.nextReqID++
	req := home.requests.Get()
	req.ID = b.nextReqID
	req.ServiceFactor = it.ServiceFactor
	req.Arrival = eng.Now()
	req.Trace = home.cfg.Tracer.Start(b.name(), b.nextReqID, 1, eng.Now())
	req.Issuer = b
	req.OnDone = completeBrowserRequest
	home.eng = eng
	home.sink.issued()
	home.target.Submit(eng, req)
}

// complete handles the completion of one of the browser's requests.  It runs
// on the browser's own lane (the dispatcher rehomes cross-lane completions),
// and releasing the request is its last action.
func (b *Browser) complete(o cloudsim.Outcome) {
	req := o.Request
	sealTrace(req.Trace, o)
	b.home.sink.record(o)
	b.scheduleNext(b.home.eng)
	b.home.requests.Put(req)
}

// sealTrace closes a sampled request's trace from its outcome.  Safe on a nil
// trace.
func sealTrace(rt *tracing.RequestTrace, o cloudsim.Outcome) {
	if rt == nil {
		return
	}
	outcome := tracing.OutcomeOK
	if o.Dropped {
		outcome = tracing.OutcomeDropped
	}
	rt.Seal(outcome, o.Start, o.End, o.VM, o.Region)
}

// scheduleNext waits the exponential think time and issues the next
// interaction.
func (b *Browser) scheduleNext(eng *simclock.Engine) {
	if !b.running {
		return
	}
	think := simclock.Duration(b.rng.Exp(b.home.cfg.ThinkTimeMean.Seconds()))
	eng.Schedule(think, (*browserIssue)(b))
}

// PopulationConfig describes the client population connected to one region.
type PopulationConfig struct {
	// Region is the region the clients connect to.
	Region string
	// Clients is the number of concurrently emulated browsers.
	Clients int
	// Mix is the interaction mix (BrowsingMix when zero-valued).
	Mix Mix
	// ThinkTimeMean is the browsers' mean think time (see BrowserConfig).
	ThinkTimeMean simclock.Duration
	// RampUp spreads the browser start times over this window instead of
	// starting all at once.
	RampUp simclock.Duration
	// IDPrefix overrides the prefix of the browser identifiers (the region
	// name when empty).  Deployments that split one region's clients across
	// several engine shards use it to keep browser IDs unique per shard.
	IDPrefix string
	// Tracer is passed to every browser (see BrowserConfig.Tracer).
	Tracer *tracing.Tracer
}

// Population is a set of emulated browsers attached to one region.  The
// browsers live in one slice and share one home, so a population of n
// browsers is a handful of allocations, not several per browser.
type Population struct {
	cfg      PopulationConfig
	browsers []Browser
}

// NewPopulation builds the browsers of one region.  All browsers share the
// provided metrics sink.
func NewPopulation(cfg PopulationConfig, rng *simclock.RNG, target Dispatcher, metrics *Metrics) *Population {
	if cfg.Mix.Name == "" {
		cfg.Mix = BrowsingMix()
	}
	p := &Population{cfg: cfg, browsers: make([]Browser, cfg.Clients)}
	home := newBrowserHome(BrowserConfig{
		Region:        cfg.Region,
		Mix:           cfg.Mix,
		ThinkTimeMean: cfg.ThinkTimeMean,
		Tracer:        cfg.Tracer,
	}, target, metrics)
	prefix := cfg.IDPrefix
	if prefix == "" {
		prefix = cfg.Region
	}
	for i := range p.browsers {
		p.browsers[i] = Browser{home: home, rng: rng.ForkValue(), index: int32(i)}
	}
	// Only a sampled trace reads a browser's name, so a population whose
	// tracer samples nothing keeps none.
	if t := cfg.Tracer; t != nil && t.SampleFraction() > 0 {
		home.names = make([]string, cfg.Clients)
		for i := range home.names {
			home.names[i] = fmt.Sprintf("%s-eb%03d", prefix, i+1)
		}
	}
	return p
}

// Size returns the number of browsers.
func (p *Population) Size() int { return len(p.browsers) }

// Start launches every browser, spreading starts over the ramp-up window.
func (p *Population) Start(eng *simclock.Engine) {
	eng.Reserve(len(p.browsers))
	for i := range p.browsers {
		b := &p.browsers[i]
		if p.cfg.RampUp > 0 && len(p.browsers) > 1 {
			delay := simclock.Duration(float64(p.cfg.RampUp) * float64(i) / float64(len(p.browsers)))
			eng.ScheduleFunc(delay, func(e *simclock.Engine) { b.Start(e) })
		} else {
			b.Start(eng)
		}
	}
}

// Stop halts every browser.
func (p *Population) Stop() {
	for i := range p.browsers {
		p.browsers[i].Stop()
	}
}

// OpenLoopConfig describes a Poisson open-loop request source of browsing-mix
// interactions.  Its one program caller is the F2PM profiling run, which
// drives each VM at a fixed request rate.
type OpenLoopConfig struct {
	// Region is the entry region of the generated requests.
	Region string
	// RatePerSec is the Poisson arrival rate.
	RatePerSec float64
}

// OpenLoop is a Poisson request generator.
type OpenLoop struct {
	cfg     OpenLoopConfig
	rng     *simclock.RNG
	target  Dispatcher
	sink    regionSink
	mix     Picker
	running bool
	nextID  uint64
}

// NewOpenLoop builds an open-loop generator.
func NewOpenLoop(cfg OpenLoopConfig, rng *simclock.RNG, target Dispatcher, metrics *Metrics) *OpenLoop {
	if metrics == nil {
		metrics = NewMetrics()
	}
	return &OpenLoop{cfg: cfg, rng: rng, target: target, sink: metrics.sink(cfg.Region), mix: BrowsingMix().Picker()}
}

// Start begins generating arrivals; they run until the engine stops.
func (o *OpenLoop) Start(eng *simclock.Engine) {
	if o.running || o.cfg.RatePerSec <= 0 {
		return
	}
	o.running = true
	o.scheduleNext(eng)
}

func (o *OpenLoop) scheduleNext(eng *simclock.Engine) {
	gap := simclock.Duration(o.rng.Exp(1 / o.cfg.RatePerSec))
	eng.ScheduleFunc(gap, func(e *simclock.Engine) {
		it := o.mix.Pick(o.rng)
		o.nextID++
		req := &cloudsim.Request{
			ID:            o.nextID,
			ServiceFactor: it.ServiceFactor,
			Arrival:       e.Now(),
			OnDone:        o.sink.record,
		}
		o.sink.issued()
		o.target.Submit(e, req)
		o.scheduleNext(e)
	})
}

// Metrics aggregates client-side observations: per-region issued/completed/
// dropped counts and response-time distributions.  The paper's figures plot
// "the average response time measured by all clients", which is exactly what
// GlobalResponseTime reports.
type Metrics struct {
	perRegion map[string]*regionMetrics
	global    regionMetrics
	respHist  *stats.Histogram
	// exemplars holds one sampled-trace exemplar per response-time bucket
	// (ResponseTimeBuckets bounds plus the overflow bucket), linking the
	// exported histogram to the span layer.
	exemplars []Exemplar
}

// Exemplar links one response-time observation to the trace that produced it.
// The deterministic pick rule — latest completion wins, ties broken by the
// larger trace ID — is a commutative, associative maximum, so merging
// per-shard sinks in any order yields the same exemplar set.
type Exemplar struct {
	// Value is the observed response time in seconds.
	Value float64
	// TraceID is the 64-bit trace identifier (render with %016x).
	TraceID uint64
	// At is the completion time of the observation.
	At simclock.Time
	// Valid reports whether the bucket has seen any sampled observation.
	Valid bool
}

// ResponseTimeBuckets is the bucket layout of the response-time histogram,
// in seconds.  The SLA threshold (1s) is a bucket bound, so the SLA
// violation ratio is readable straight off the cumulative bucket counts.
var ResponseTimeBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

type regionMetrics struct {
	issued    uint64
	completed uint64
	dropped   uint64
	slaMiss   uint64
	resp      stats.Welford
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics {
	return &Metrics{
		perRegion: map[string]*regionMetrics{},
		respHist:  stats.NewHistogram(ResponseTimeBuckets),
		exemplars: make([]Exemplar, len(ResponseTimeBuckets)+1),
	}
}

// SLAThresholdSeconds is the response-time SLA the paper uses when reporting
// client-side behaviour: 1 second.
const SLAThresholdSeconds = 1.0

// region returns the named region's entry, creating it on first use.  Only
// the recording paths create entries: reads go through read.
func (m *Metrics) region(name string) *regionMetrics {
	rm, ok := m.perRegion[name]
	if !ok {
		rm = &regionMetrics{}
		m.perRegion[name] = rm
	}
	return rm
}

// read returns the entry the accessors report for region: the global entry
// for "", the region's entry when it has recorded anything, otherwise an
// empty one.  A read never creates an entry, so it cannot change Regions.
func (m *Metrics) read(region string) *regionMetrics {
	if region == "" {
		return &m.global
	}
	if rm, ok := m.perRegion[region]; ok {
		return rm
	}
	return &regionMetrics{}
}

// regionSink is one client stream's recording handle on a Metrics: the sink
// and the region label the stream records under.  The region's entry is
// resolved on the first record and kept, so recording never looks the name
// up again.  The entry still appears exactly when the first interaction is
// counted, and Reset keeps entries, so the handle stays valid for the life
// of the sink.
type regionSink struct {
	m      *Metrics
	region string
	rm     *regionMetrics
}

// sink returns a recording handle for the region.
func (m *Metrics) sink(region string) regionSink { return regionSink{m: m, region: region} }

// entry returns the region's entry, resolving it on first use.
func (s *regionSink) entry() *regionMetrics {
	if s.rm == nil {
		s.rm = s.m.region(s.region)
	}
	return s.rm
}

func (s *regionSink) issued() {
	s.entry().issued++
	s.m.global.issued++
}

// issuedN counts n interactions issued at once (a cohort batch).
func (s *regionSink) issuedN(n uint64) {
	s.entry().issued += n
	s.m.global.issued += n
}

func (s *regionSink) record(o cloudsim.Outcome) {
	rm, m := s.entry(), s.m
	if o.Dropped {
		rm.dropped++
		m.global.dropped++
		return
	}
	rt := o.ResponseTime().Seconds()
	rm.completed++
	rm.resp.Add(rt)
	m.global.completed++
	m.global.resp.Add(rt)
	m.respHist.Observe(rt)
	if o.Request != nil && o.Request.Trace != nil {
		m.observeExemplar(rt, o.Request.Trace.TraceID, o.End)
	}
	if rt > SLAThresholdSeconds {
		rm.slaMiss++
		m.global.slaMiss++
	}
}

// observeExemplar folds one sampled observation into the per-bucket exemplar
// set under the deterministic pick rule.
func (m *Metrics) observeExemplar(rt float64, traceID uint64, at simclock.Time) {
	i := 0
	for ; i < len(ResponseTimeBuckets); i++ {
		if rt <= ResponseTimeBuckets[i] {
			break
		}
	}
	ex := &m.exemplars[i]
	if ex.Valid && (ex.At > at || (ex.At == at && ex.TraceID >= traceID)) {
		return
	}
	*ex = Exemplar{Value: rt, TraceID: traceID, At: at, Valid: true}
}

// recordBatch folds the outcome of a cohort batch of n interactions into the
// counters.  Batches carry aggregate counts only: they move the completed and
// dropped counters by their weight but add no response-time sample — the
// latency distribution (and with it slaMiss) is fed exclusively by
// individually simulated clients, i.e. browsers and cohort tracers.
func (s *regionSink) recordBatch(o cloudsim.Outcome, n uint64) {
	rm := s.entry()
	if o.Dropped {
		rm.dropped += n
		s.m.global.dropped += n
		return
	}
	rm.completed += n
	s.m.global.completed += n
}

// Merge folds another metrics sink into m: counters add, response-time
// moments combine exactly via Welford's parallel update.  Deployments that
// keep one sink per engine shard (so recording stays shard-local and
// lock-free) fold the shards in shard-index order at read time — the fixed
// fold order is what keeps the merged floating-point moments
// bit-reproducible for any goroutine interleaving.
func (m *Metrics) Merge(src *Metrics) {
	if src == nil {
		return
	}
	for name, rm := range src.perRegion {
		dst := m.region(name)
		dst.issued += rm.issued
		dst.completed += rm.completed
		dst.dropped += rm.dropped
		dst.slaMiss += rm.slaMiss
		dst.resp.Merge(rm.resp)
	}
	m.global.issued += src.global.issued
	m.global.completed += src.global.completed
	m.global.dropped += src.global.dropped
	m.global.slaMiss += src.global.slaMiss
	m.global.resp.Merge(src.global.resp)
	m.respHist.Merge(src.respHist)
	for i := range src.exemplars {
		ex := src.exemplars[i]
		if !ex.Valid {
			continue
		}
		dst := &m.exemplars[i]
		if dst.Valid && (dst.At > ex.At || (dst.At == ex.At && dst.TraceID >= ex.TraceID)) {
			continue
		}
		*dst = ex
	}
}

// Reset zeroes every counter, moment, histogram bin and exemplar in place.
// The region entries stay (zeroed), so a sink reset and refilled with the
// same streams allocates nothing and reports the same Regions.
func (m *Metrics) Reset() {
	for _, rm := range m.perRegion {
		*rm = regionMetrics{}
	}
	m.global = regionMetrics{}
	m.respHist.Reset()
	clear(m.exemplars)
}

// ResponseExemplars returns a copy of the per-bucket exemplars: one slot per
// ResponseTimeBuckets bound plus the overflow bucket, each valid only once a
// sampled trace landed in it.
func (m *Metrics) ResponseExemplars() []Exemplar {
	return append([]Exemplar(nil), m.exemplars...)
}

// ResponseHistogram returns the bucketed response-time distribution over all
// individually simulated clients (ResponseTimeBuckets bounds, seconds).  The
// caller must treat it as read-only.
func (m *Metrics) ResponseHistogram() *stats.Histogram { return m.respHist }

// Issued returns the number of requests issued by clients of the region ("" =
// global).
func (m *Metrics) Issued(region string) uint64 { return m.read(region).issued }

// Completed returns the number of successfully completed requests.
func (m *Metrics) Completed(region string) uint64 { return m.read(region).completed }

// Dropped returns the number of dropped requests.
func (m *Metrics) Dropped(region string) uint64 { return m.read(region).dropped }

// Timeouts returns 0: no emulated user gives up on a request, so none is
// ever abandoned.  It stays only because the reference benchmark's run
// summary reads it; ROADMAP item 8, the change that rewrites the benchmark,
// deletes it.
func (m *Metrics) Timeouts(string) uint64 { return 0 }

// SLAViolations returns the number of completed requests whose response time
// exceeded the 1-second SLA.
func (m *Metrics) SLAViolations(region string) uint64 { return m.read(region).slaMiss }

// ResponseSamples returns the number of response-time samples recorded for
// the region ("" = global).  Without cohorts this equals Completed; with
// cohort-compressed populations only the tracer sub-population feeds the
// latency series, so ratios over the response-time distribution (mean RT, SLA
// violations) must divide by this count, not by the batch-weighted Completed.
func (m *Metrics) ResponseSamples(region string) uint64 {
	return uint64(m.read(region).resp.Count())
}

// MeanResponseTime returns the mean response time in seconds observed by the
// clients of the region ("" = all clients).
func (m *Metrics) MeanResponseTime(region string) float64 { return m.read(region).resp.Mean() }

// Regions returns the region names observed so far, sorted.
func (m *Metrics) Regions() []string {
	out := make([]string, 0, len(m.perRegion))
	for r := range m.perRegion {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// SuccessRatio returns completed / issued for the region ("" = global), or 0
// when nothing was issued.
func (m *Metrics) SuccessRatio(region string) float64 {
	iss := m.Issued(region)
	if iss == 0 {
		return 0
	}
	return float64(m.Completed(region)) / float64(iss)
}

// String summarises the global metrics.
func (m *Metrics) String() string {
	return fmt.Sprintf("issued=%d completed=%d dropped=%d meanRT=%.3fs slaMiss=%d",
		m.global.issued, m.global.completed, m.global.dropped,
		m.global.resp.Mean(), m.global.slaMiss)
}
