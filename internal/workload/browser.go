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

// BrowserConfig holds the knobs of one emulated browser.
type BrowserConfig struct {
	// ID identifies the browser ("region1-eb007").
	ID string
	// Region is the cloud region the browser is connected to; it becomes the
	// EntryRegion of every request it issues.
	Region string
	// Mix is the interaction mix the browser draws from.
	Mix Mix
	// ThinkTimeMean is the mean of the exponentially distributed think time
	// between receiving a response and issuing the next interaction.  TPC-W
	// prescribes a mean of 7 seconds for emulated browsers.
	ThinkTimeMean simclock.Duration
	// SessionLength is the mean number of interactions per user session; after
	// a session ends the browser immediately starts a new one (new user).  It
	// only affects bookkeeping, not load.  Zero means 50.
	SessionLength int
	// Timeout aborts an interaction that has not completed after this long and
	// counts it as an error (the emulated user gives up).  Zero disables the
	// timeout.
	Timeout simclock.Duration
	// Tracer, when non-nil, samples this browser's requests into the
	// deployment's span layer.  The stream identity is the browser ID, so the
	// sampled set is a pure function of (tracer seed, browser ID, request
	// counter) — independent of event interleavings.
	Tracer *tracing.Tracer
}

// withDefaults fills zero fields with the TPC-W defaults.
func (c BrowserConfig) withDefaults() BrowserConfig {
	if c.ThinkTimeMean <= 0 {
		c.ThinkTimeMean = 7 * simclock.Second
	}
	if c.SessionLength <= 0 {
		c.SessionLength = 50
	}
	return c
}

// Browser is one emulated web browser running a closed-loop TPC-W session.
//
// Its requests come from the free list of its browserHome and go back to it
// at the end of their one completion callback.  The browser has at most one
// live request, outstanding; a completion for any other request is the late
// completion of one that timed out, and only releases it.
type Browser struct {
	cfg  BrowserConfig
	rng  *simclock.RNG
	home *browserHome

	eng         *simclock.Engine // engine the browser issues on
	outstanding *cloudsim.Request
	timeout     simclock.Handle
	nextReqID   uint64
	sessions    uint64
	inSession   int32
	running     bool
}

// browserHome is what the browsers of one population share: the dispatcher
// they submit to, the metrics sink and the free list of their requests.  A
// population lives on one engine lane, so the free list is lane-local.
type browserHome struct {
	target   Dispatcher
	metrics  *Metrics
	requests cloudsim.RequestPool
}

func newBrowserHome(target Dispatcher, metrics *Metrics) *browserHome {
	if metrics == nil {
		metrics = NewMetrics()
	}
	return &browserHome{target: target, metrics: metrics}
}

// NewBrowser builds an emulated browser that submits requests to target and
// records outcomes into metrics (which may be shared across browsers).
func NewBrowser(cfg BrowserConfig, rng *simclock.RNG, target Dispatcher, metrics *Metrics) *Browser {
	return &Browser{cfg: cfg.withDefaults(), rng: rng, home: newBrowserHome(target, metrics)}
}

// browserIssue and browserTimeout are a browser seen as its next-issue and
// its timeout event, so scheduling either allocates nothing.
type (
	browserIssue   Browser
	browserTimeout Browser
)

// Fire implements simclock.Event.
func (b *browserIssue) Fire(eng *simclock.Engine) { (*Browser)(b).issue(eng) }

// Fire implements simclock.Event.
func (b *browserTimeout) Fire(eng *simclock.Engine) { (*Browser)(b).expire(eng) }

// completeBrowserRequest is the completion callback of every browser
// request: the request names its browser as Issuer.
func completeBrowserRequest(o cloudsim.Outcome) { o.Request.Issuer.(*Browser).complete(o) }

// ID returns the browser identifier.
func (b *Browser) ID() string { return b.cfg.ID }

// Sessions returns the number of completed user sessions.
func (b *Browser) Sessions() uint64 { return b.sessions }

// Start begins the closed loop: the first interaction is issued after a
// random fraction of the think time so that browsers do not fire in lockstep.
func (b *Browser) Start(eng *simclock.Engine) {
	if b.running {
		return
	}
	b.running = true
	initial := simclock.Duration(b.rng.Uniform(0, b.cfg.ThinkTimeMean.Seconds()))
	eng.Schedule(initial, (*browserIssue)(b))
}

// Stop ends the closed loop after the in-flight interaction (if any)
// completes.
func (b *Browser) Stop() { b.running = false }

// Running reports whether the browser loop is active.
func (b *Browser) Running() bool { return b.running }

// issue sends the next interaction.
func (b *Browser) issue(eng *simclock.Engine) {
	if !b.running {
		return
	}
	it := b.cfg.Mix.Pick(b.rng)
	b.nextReqID++
	b.inSession++
	if int(b.inSession) >= b.cfg.SessionLength {
		b.inSession = 0
		b.sessions++
	}
	req := b.home.requests.Get()
	req.ID = b.nextReqID
	req.Class = it.Name
	req.ServiceFactor = it.ServiceFactor
	req.EntryRegion = b.cfg.Region
	req.Arrival = eng.Now()
	req.Trace = b.cfg.Tracer.Start(b.cfg.ID, b.nextReqID, 1, eng.Now())
	req.Issuer = b
	req.OnDone = completeBrowserRequest
	b.eng = eng
	b.outstanding = req
	if b.cfg.Timeout > 0 {
		b.timeout = eng.Schedule(b.cfg.Timeout, (*browserTimeout)(b))
	}
	b.home.metrics.issued(b.cfg.Region)
	b.home.target.Submit(eng, req)
}

// complete handles the completion of one of the browser's requests.  It runs
// on the browser's own lane (the dispatcher rehomes cross-lane completions),
// and releasing the request is its last action.
func (b *Browser) complete(o cloudsim.Outcome) {
	req := o.Request
	if req == b.outstanding {
		b.outstanding = nil
		b.timeout.Cancel()
		sealTrace(req.Trace, o)
		b.home.metrics.record(b.cfg.Region, o)
		b.scheduleNext(b.eng)
	}
	b.home.requests.Put(req)
}

// expire gives up on the outstanding request.  A completion cancels the
// timer, so the request it was armed for is still outstanding; the request
// itself stays out of the free list until its late completion fires.
func (b *Browser) expire(e *simclock.Engine) {
	req := b.outstanding
	b.outstanding = nil
	req.Trace.Seal(tracing.OutcomeTimeout, e.Now(), e.Now(), "", "")
	b.home.metrics.recordTimeout(b.cfg.Region)
	b.scheduleNext(e)
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
	think := simclock.Duration(b.rng.Exp(b.cfg.ThinkTimeMean.Seconds()))
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
	// ThinkTimeMean overrides the browsers' mean think time (7 s when zero).
	ThinkTimeMean simclock.Duration
	// Timeout is the per-interaction timeout passed to every browser.
	Timeout simclock.Duration
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

// Population is a set of emulated browsers attached to one region.
type Population struct {
	cfg      PopulationConfig
	browsers []*Browser
}

// NewPopulation builds the browsers of one region.  All browsers share the
// provided metrics sink.
func NewPopulation(cfg PopulationConfig, rng *simclock.RNG, target Dispatcher, metrics *Metrics) *Population {
	if cfg.Mix.Name == "" {
		cfg.Mix = BrowsingMix()
	}
	p := &Population{cfg: cfg}
	home := newBrowserHome(target, metrics)
	prefix := cfg.IDPrefix
	if prefix == "" {
		prefix = cfg.Region
	}
	for i := 0; i < cfg.Clients; i++ {
		bc := BrowserConfig{
			ID:            fmt.Sprintf("%s-eb%03d", prefix, i+1),
			Region:        cfg.Region,
			Mix:           cfg.Mix,
			ThinkTimeMean: cfg.ThinkTimeMean,
			Timeout:       cfg.Timeout,
			Tracer:        cfg.Tracer,
		}
		p.browsers = append(p.browsers, &Browser{cfg: bc.withDefaults(), rng: rng.Fork(), home: home})
	}
	return p
}

// Region returns the region the population connects to.
func (p *Population) Region() string { return p.cfg.Region }

// Size returns the number of browsers.
func (p *Population) Size() int { return len(p.browsers) }

// Browsers returns the individual browsers.  The returned slice is a copy:
// mutating it cannot perturb the population's internal start/stop ordering.
func (p *Population) Browsers() []*Browser {
	return append([]*Browser(nil), p.browsers...)
}

// Start launches every browser, spreading starts over the ramp-up window.
func (p *Population) Start(eng *simclock.Engine) {
	eng.Reserve(len(p.browsers))
	for i, b := range p.browsers {
		b := b
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
	for _, b := range p.browsers {
		b.Stop()
	}
}

// ExpectedRate returns the steady-state request rate (requests per second) a
// closed-loop population of this size generates when the mean response time
// is small compared to the think time: clients / thinkTime.
func (p *Population) ExpectedRate() float64 {
	think := p.cfg.ThinkTimeMean
	if think <= 0 {
		think = 7 * simclock.Second
	}
	return float64(p.cfg.Clients) / think.Seconds()
}

// OpenLoopConfig describes a Poisson open-loop request source, used by unit
// tests and by the ablation experiments that need a precisely controlled
// request rate λ (the global incoming request rate of equation 3).
type OpenLoopConfig struct {
	// Region is the entry region of the generated requests.
	Region string
	// RatePerSec is the Poisson arrival rate.
	RatePerSec float64
	// Mix is the interaction mix (BrowsingMix when zero-valued).
	Mix Mix
	// Tracer, when non-nil, samples the stream's requests into the span
	// layer under the "<region>-open" stream identity.
	Tracer *tracing.Tracer
}

// OpenLoop is a Poisson request generator.
type OpenLoop struct {
	cfg     OpenLoopConfig
	rng     *simclock.RNG
	target  Dispatcher
	metrics *Metrics
	running bool
	nextID  uint64
}

// NewOpenLoop builds an open-loop generator.
func NewOpenLoop(cfg OpenLoopConfig, rng *simclock.RNG, target Dispatcher, metrics *Metrics) *OpenLoop {
	if cfg.Mix.Name == "" {
		cfg.Mix = BrowsingMix()
	}
	if metrics == nil {
		metrics = NewMetrics()
	}
	return &OpenLoop{cfg: cfg, rng: rng, target: target, metrics: metrics}
}

// Start begins generating arrivals.
func (o *OpenLoop) Start(eng *simclock.Engine) {
	if o.running || o.cfg.RatePerSec <= 0 {
		return
	}
	o.running = true
	o.scheduleNext(eng)
}

// Stop halts the generator.
func (o *OpenLoop) Stop() { o.running = false }

func (o *OpenLoop) scheduleNext(eng *simclock.Engine) {
	if !o.running {
		return
	}
	gap := simclock.Duration(o.rng.Exp(1 / o.cfg.RatePerSec))
	eng.ScheduleFunc(gap, func(e *simclock.Engine) {
		if !o.running {
			return
		}
		it := o.cfg.Mix.Pick(o.rng)
		o.nextID++
		req := &cloudsim.Request{
			ID:            o.nextID,
			Class:         it.Name,
			ServiceFactor: it.ServiceFactor,
			EntryRegion:   o.cfg.Region,
			Arrival:       e.Now(),
			Trace:         o.cfg.Tracer.Start(o.cfg.Region+"-open", o.nextID, 1, e.Now()),
		}
		req.OnDone = func(out cloudsim.Outcome) {
			sealTrace(req.Trace, out)
			o.metrics.record(o.cfg.Region, out)
		}
		o.metrics.issued(o.cfg.Region)
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
	timeouts  uint64
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

func (m *Metrics) region(name string) *regionMetrics {
	rm, ok := m.perRegion[name]
	if !ok {
		rm = &regionMetrics{}
		m.perRegion[name] = rm
	}
	return rm
}

func (m *Metrics) issued(region string) {
	m.region(region).issued++
	m.global.issued++
}

// issuedN counts n interactions issued at once (a cohort batch).
func (m *Metrics) issuedN(region string, n uint64) {
	m.region(region).issued += n
	m.global.issued += n
}

func (m *Metrics) record(region string, o cloudsim.Outcome) {
	rm := m.region(region)
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
func (m *Metrics) recordBatch(region string, o cloudsim.Outcome, n uint64) {
	rm := m.region(region)
	if o.Dropped {
		rm.dropped += n
		m.global.dropped += n
		return
	}
	rm.completed += n
	m.global.completed += n
}

func (m *Metrics) recordTimeout(region string) {
	m.region(region).timeouts++
	m.global.timeouts++
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
		dst.timeouts += rm.timeouts
		dst.slaMiss += rm.slaMiss
		dst.resp.Merge(rm.resp)
	}
	m.global.issued += src.global.issued
	m.global.completed += src.global.completed
	m.global.dropped += src.global.dropped
	m.global.timeouts += src.global.timeouts
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
func (m *Metrics) Issued(region string) uint64 {
	if region == "" {
		return m.global.issued
	}
	return m.region(region).issued
}

// Completed returns the number of successfully completed requests.
func (m *Metrics) Completed(region string) uint64 {
	if region == "" {
		return m.global.completed
	}
	return m.region(region).completed
}

// Dropped returns the number of dropped requests.
func (m *Metrics) Dropped(region string) uint64 {
	if region == "" {
		return m.global.dropped
	}
	return m.region(region).dropped
}

// Timeouts returns the number of requests abandoned by the emulated users.
func (m *Metrics) Timeouts(region string) uint64 {
	if region == "" {
		return m.global.timeouts
	}
	return m.region(region).timeouts
}

// SLAViolations returns the number of completed requests whose response time
// exceeded the 1-second SLA.
func (m *Metrics) SLAViolations(region string) uint64 {
	if region == "" {
		return m.global.slaMiss
	}
	return m.region(region).slaMiss
}

// ResponseSamples returns the number of response-time samples recorded for
// the region ("" = global).  Without cohorts this equals Completed; with
// cohort-compressed populations only the tracer sub-population feeds the
// latency series, so ratios over the response-time distribution (mean RT, SLA
// violations) must divide by this count, not by the batch-weighted Completed.
func (m *Metrics) ResponseSamples(region string) uint64 {
	if region == "" {
		return uint64(m.global.resp.Count())
	}
	return uint64(m.region(region).resp.Count())
}

// MeanResponseTime returns the mean response time in seconds observed by the
// clients of the region ("" = all clients).
func (m *Metrics) MeanResponseTime(region string) float64 {
	if region == "" {
		return m.global.resp.Mean()
	}
	return m.region(region).resp.Mean()
}

// ResponseTimeStdDev returns the response-time standard deviation in seconds.
func (m *Metrics) ResponseTimeStdDev(region string) float64 {
	if region == "" {
		return m.global.resp.StdDev()
	}
	return m.region(region).resp.StdDev()
}

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
	return fmt.Sprintf("issued=%d completed=%d dropped=%d timeouts=%d meanRT=%.3fs slaMiss=%d",
		m.global.issued, m.global.completed, m.global.dropped, m.global.timeouts,
		m.global.resp.Mean(), m.global.slaMiss)
}
