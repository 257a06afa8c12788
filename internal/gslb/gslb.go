// Package gslb is the global traffic director of the deployment: the
// component that sits between client populations and cloud regions and
// decides, per request, which region serves it — the simulated counterpart
// of a DNS-level global server load balancer (GSLB).
//
// A Director owns one routing policy (static weights, round-robin,
// telemetry-driven least-load, health-driven failover, or latency-aware
// proximity routing) and a per-region health state machine fed by a periodic
// probe of region telemetry (active capacity and error signals).  The probe
// runs on the simulation's control timeline, so health transitions — and the
// routing-table snapshots derived from them — happen at deterministic
// timestamps while every region shard is idle.  Request-path routing only
// ever reads an immutable *Table snapshot with caller-owned RNG/rotation
// state, which is what keeps a deployment's output byte-identical for any
// event-loop worker count.
//
// The latency policy learns passively, the way OpenGSLB's advanced
// passive-latency-learning demo does: a per-(stream, region) RTT matrix
// seeds the estimates, every observed request completion is buffered by its
// issuing lane, and the buffers are folded into a per-lane EWMA (plus a P²
// streaming quantile for reports) at the next probe tick — on the control
// timeline, in lane-index order — so the estimates move at deterministic
// timestamps and the request path never writes shared state.
//
// The health model follows the shape of production GSLBs (OpenGSLB's
// health-checked geo/failover/weighted policies): a region serves while
// Healthy or Degraded, is excluded while Drained or Recovering, and both
// transitions are debounced by consecutive-probe streaks so a single noisy
// sample neither drains a region nor fails traffic back prematurely.
package gslb

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/validate"
)

// PolicyKind names a routing policy.
type PolicyKind string

const (
	// PolicyStatic splits traffic across serving regions by fixed weights.
	PolicyStatic PolicyKind = "static"
	// PolicyRoundRobin rotates across serving regions.  Each request stream
	// keeps its own rotation cursor, so the policy is deterministic for any
	// worker count.
	PolicyRoundRobin PolicyKind = "rr"
	// PolicyLeastLoad weights serving regions by the healthy-state service
	// capacity reported by the most recent probe, so traffic follows
	// capacity as regions degrade, rejuvenate and recover.
	PolicyLeastLoad PolicyKind = "leastload"
	// PolicyFailover sends all traffic to the most-preferred serving region
	// and fails over to the next preference when it drains, failing back
	// once the preferred region is healthy again.
	PolicyFailover PolicyKind = "failover"
	// PolicyLatency weights serving regions by healthy capacity divided by
	// the per-stream latency estimate raised to Config.LatencyExponent, so
	// each population stream prefers nearby regions without abandoning
	// capacity awareness.  Estimates are seeded from Config.RTT and learned
	// passively from observed completions (see Observe).
	PolicyLatency PolicyKind = "latency"
)

// PolicyKinds returns every routing policy in presentation order.
func PolicyKinds() []PolicyKind {
	return []PolicyKind{PolicyStatic, PolicyRoundRobin, PolicyLeastLoad, PolicyFailover, PolicyLatency}
}

// ParsePolicy validates a policy name from a CLI flag or config file,
// returning an error that lists the valid choices.
func ParsePolicy(s string) (PolicyKind, error) {
	for _, k := range PolicyKinds() {
		if string(k) == s {
			return k, nil
		}
	}
	names := make([]string, 0, len(PolicyKinds()))
	for _, k := range PolicyKinds() {
		names = append(names, string(k))
	}
	return "", fmt.Errorf("gslb: unknown policy %q (valid: %s)", s, strings.Join(names, ", "))
}

// DisabledThreshold is the sentinel that sets a health threshold to an
// effective zero.  The zero value of CapacityThreshold/ErrorThreshold means
// "unset" (the default applies), so an explicit zero — "never drain on
// capacity" for CapacityThreshold, "zero error tolerance" for ErrorThreshold
// — is expressed with -1 instead.
const DisabledThreshold = -1

// Config tunes the director.  The zero value means "no director"; setting
// Policy enables it.  All fields are plain data so scenarios embedding a
// Config round-trip through JSON.
type Config struct {
	// Policy selects the routing policy; empty disables the director.
	Policy PolicyKind
	// Weights are the static-weight policy's per-region weights, in
	// deployment order (uniform when empty).  Each weight must be
	// non-negative and at least one must be positive.  Ignored by other
	// policies.
	Weights []float64
	// Preference orders region names most-preferred first for the failover
	// policy (deployment order when empty).  Ignored by other policies.
	Preference []string
	// ProbeInterval is the health-probe period on the control timeline
	// (15 s when zero).
	ProbeInterval simclock.Duration
	// CapacityThreshold drains a region whose ACTIVE-VM fraction (relative
	// to its initial active pool) falls below this value.  0 means unset
	// (0.5 applies); DisabledThreshold (-1) means an effective zero, i.e.
	// never drain on capacity.
	CapacityThreshold float64
	// ErrorThreshold drains a region whose per-probe-interval drop ratio
	// (dropped / (served + dropped)) exceeds this value.  0 means unset
	// (0.5 applies); DisabledThreshold (-1) means an effective zero, i.e.
	// any drop in a probe interval counts as a bad probe.
	ErrorThreshold float64
	// UnhealthyAfter is the number of consecutive bad probes before a
	// serving region is drained (2 when zero).
	UnhealthyAfter int
	// HealthyAfter is the number of consecutive good probes before a
	// drained region serves again (4 when zero).
	HealthyAfter int
	// RTT seeds the latency estimates: milliseconds from a population
	// stream (key) to each region, columns in deployment order.  Streams
	// without a row start from a uniform 50 ms prior.  Any non-empty matrix
	// makes the deployment latency-aware (completions are observed and the
	// network round trips are simulated) even under a non-latency policy,
	// so policies can be compared on the same network.
	RTT map[string][]float64
	// LatencyExponent is the proximity exponent k of the latency policy's
	// weights (capacity / RTT^k).  0 means unset (1 applies).
	LatencyExponent float64
	// LatencyAlpha is the EWMA smoothing factor folding each probe
	// interval's observed mean RTT into a lane's estimate.  0 means unset
	// (0.3 applies); must lie in [0, 1].
	LatencyAlpha float64
}

// Enabled reports whether the configuration selects a director.
func (c Config) Enabled() bool { return c.Policy != "" }

// LatencyAware reports whether the configuration observes per-lane latency:
// either the latency policy is selected or an RTT matrix is present.
func (c Config) LatencyAware() bool {
	return c.Policy == PolicyLatency || len(c.RTT) > 0
}

// withDefaults returns the configuration with every unset field replaced by
// its documented default.
func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 15 * simclock.Second
	}
	// 0 is "unset" for the thresholds; the explicit-zero semantics ("never
	// drain on capacity", "zero error tolerance") are spelled
	// DisabledThreshold and map to an effective 0 here.
	switch c.CapacityThreshold {
	case DisabledThreshold:
		c.CapacityThreshold = 0
	case 0:
		c.CapacityThreshold = 0.5
	}
	switch c.ErrorThreshold {
	case DisabledThreshold:
		c.ErrorThreshold = 0
	case 0:
		c.ErrorThreshold = 0.5
	}
	if c.UnhealthyAfter <= 0 {
		c.UnhealthyAfter = 2
	}
	if c.HealthyAfter <= 0 {
		c.HealthyAfter = 4
	}
	if c.LatencyExponent == 0 {
		c.LatencyExponent = 1
	}
	if c.LatencyAlpha == 0 {
		c.LatencyAlpha = 0.3
	}
	return c
}

// HealthState is one region's position in the failover state machine.
type HealthState int

const (
	// Healthy: serving, no recent bad probes.
	Healthy HealthState = iota
	// Degraded: serving, but accumulating bad probes towards a drain.
	Degraded
	// Drained: excluded from routing until probes recover.
	Drained
	// Recovering: still excluded, accumulating good probes towards failback.
	Recovering
)

// String renders the state name.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Drained:
		return "drained"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// Serving reports whether a region in this state receives traffic.
func (s HealthState) Serving() bool { return s == Healthy || s == Degraded }

// Transition records one health-state change, for reports and byte-pinned
// goldens.
type Transition struct {
	// At is the control-timeline timestamp of the probe that moved the
	// region.
	At simclock.Time
	// Region names the region.
	Region string
	// From and To are the states before and after.
	From, To HealthState
}

// String renders the transition on one line ("t=630s region1 degraded->drained").
func (t Transition) String() string {
	return fmt.Sprintf("t=%.0fs %s %s->%s", t.At.Seconds(), t.Region, t.From, t.To)
}

// regionHealth is one region's probe state: the debounced state machine its
// Director advances with each telemetry sample.  A new region starts Healthy
// with capacity 1 (uniform until the first probe).
type regionHealth struct {
	// State is the region's position in the failover state machine.
	State HealthState
	// Capacity is the last probed service capacity (the least-load weight).
	Capacity float64
	// Streak counters and counter-delta baselines.
	badStreak   int
	goodStreak  int
	prevServed  uint64
	prevDropped uint64
}

// probe advances the state machine with one telemetry sample and returns the
// states before and after (equal when nothing changed).  cfg must have
// defaults applied (withDefaults).  The capacity fraction is measured against
// the region's initial active pool, served/dropped are cumulative counters
// diffed against the previous probe, and negative deltas (a counter
// regression through a fault path) clamp to zero rather than underflowing.
func (h *regionHealth) probe(cfg Config, tel cloudsim.Telemetry) (from, to HealthState) {
	from = h.State
	h.Capacity = tel.Capacity

	baseline := tel.BaselineActive
	if baseline <= 0 {
		baseline = 1
	}
	capFrac := float64(tel.ActiveVMs) / float64(baseline)
	var dServed, dDropped uint64
	if tel.Served >= h.prevServed {
		dServed = tel.Served - h.prevServed
	}
	if tel.Dropped >= h.prevDropped {
		dDropped = tel.Dropped - h.prevDropped
	}
	h.prevServed, h.prevDropped = tel.Served, tel.Dropped
	errRate := 0.0
	if total := dServed + dDropped; total > 0 {
		errRate = float64(dDropped) / float64(total)
	}
	bad := capFrac < cfg.CapacityThreshold || errRate > cfg.ErrorThreshold

	if bad {
		h.goodStreak = 0
		h.badStreak++
	} else {
		h.badStreak = 0
		h.goodStreak++
	}
	next := h.State
	if h.State.Serving() {
		switch {
		case h.badStreak >= cfg.UnhealthyAfter:
			next = Drained
		case h.badStreak > 0:
			next = Degraded
		default:
			next = Healthy
		}
	} else {
		switch {
		case h.goodStreak >= cfg.HealthyAfter:
			next = Healthy
		case h.goodStreak > 0:
			next = Recovering
		default:
			next = Drained
		}
	}
	h.State = next
	return from, next
}

// laneEstimate is the passive latency state of one (stream, region) lane:
// the EWMA estimate routing weighs, a P² p95 for reports, and the current
// probe interval's observation accumulator (folded and reset at each tick).
type laneEstimate struct {
	estMs    float64 // EWMA round-trip estimate, milliseconds
	quant    *stats.P2Quantile
	obsSum   float64 // interaction-weighted RTT sum since the last tick, ms
	obsCount uint64  // interaction-weighted observation count since the last tick
}

// defaultSeedMs is the uniform prior for streams without a Config.RTT row.
const defaultSeedMs = 50

// latFloorMs clamps the latency-policy denominator so a learned
// near-zero estimate cannot blow a weight up to infinity.
const latFloorMs = 1

// Director is the global traffic director.  Tick, Probe and Adopt are
// control-timeline-only; the request path reads immutable Table snapshots.
type Director struct {
	cfg     Config
	regions []string
	streams []string
	sample  func(i int) cloudsim.Telemetry
	health  []regionHealth
	lanes   [][]laneEstimate // [stream][region], nil unless latency-aware
	pref    []int            // preference order as region indices
	table   *Table
	stale   bool // health moved since table was built
	trans   []Transition
	probes  uint64
}

// NewDirector builds a director over the named regions (deployment order).
// streams names the population streams whose requests the director routes
// (deployment order; a single "default" stream when empty) — the latency
// policy keeps one estimate lane per (stream, region).  sample returns the
// current telemetry of region i; it is only called from Tick.  The initial
// routing table treats every region as Healthy with its probe-time capacity
// unknown (uniform least-load weights) — the first probe replaces it.
func NewDirector(cfg Config, regions, streams []string, sample func(i int) cloudsim.Telemetry) (*Director, error) {
	if !cfg.Enabled() {
		return nil, fmt.Errorf("gslb: config has no policy")
	}
	if _, err := ParsePolicy(string(cfg.Policy)); err != nil {
		return nil, err
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("gslb: no regions")
	}
	if sample == nil {
		return nil, fmt.Errorf("gslb: nil telemetry sampler")
	}
	if err := validateConfig(cfg, regions, streams); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(streams) == 0 {
		streams = []string{"default"}
	}
	pref, err := preferenceOrder(cfg.Preference, regions)
	if err != nil {
		return nil, err
	}
	d := &Director{
		cfg:     cfg,
		regions: append([]string(nil), regions...),
		streams: append([]string(nil), streams...),
		sample:  sample,
		health:  make([]regionHealth, len(regions)),
		pref:    pref,
	}
	for i := range d.health {
		d.health[i].Capacity = 1
	}
	if cfg.LatencyAware() {
		d.lanes = make([][]laneEstimate, len(streams))
		for s, name := range d.streams {
			d.lanes[s] = make([]laneEstimate, len(regions))
			row := cfg.RTT[name]
			for r := range d.lanes[s] {
				seed := float64(defaultSeedMs)
				if len(row) == len(regions) {
					seed = row[r]
				}
				d.lanes[s][r].estMs = seed
				d.lanes[s][r].quant = stats.NewP2Quantile(0.95)
			}
		}
	}
	d.table = d.buildTable()
	return d, nil
}

// preferenceOrder resolves a Config.Preference list into region indices:
// named regions first, then every unlisted region as a last-resort backup in
// deployment order.  An empty preference yields plain deployment order.
// Unknown and duplicated names are rejected.
func preferenceOrder(preference, regions []string) ([]int, error) {
	index := make(map[string]int, len(regions))
	for i, r := range regions {
		index[r] = i
	}
	pref := make([]int, 0, len(regions))
	if len(preference) > 0 {
		seen := map[int]bool{}
		for _, name := range preference {
			i, ok := index[name]
			if !ok {
				return nil, fmt.Errorf("gslb: preference names unknown region %q", name)
			}
			if seen[i] {
				return nil, fmt.Errorf("gslb: region %q listed twice in preference", name)
			}
			seen[i] = true
			pref = append(pref, i)
		}
		// Unlisted regions become last-resort backups in deployment order.
		for i := range regions {
			if !seen[i] {
				pref = append(pref, i)
			}
		}
	} else {
		for i := range regions {
			pref = append(pref, i)
		}
	}
	return pref, nil
}

// validateConfig rejects configurations a director cannot honour, with
// errors that name the offending field.  It runs on the raw config, before
// defaults are applied, so the threshold sentinels are still
// distinguishable.
func validateConfig(cfg Config, regions, streams []string) error {
	if len(cfg.Weights) > 0 {
		if len(cfg.Weights) != len(regions) {
			return validate.Fieldf("gslb", "Weights", "has %d static weights for %d regions", len(cfg.Weights), len(regions))
		}
		positive := false
		for i, w := range cfg.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return validate.Fieldf("gslb", fmt.Sprintf("Weights[%d]", i), "= %v; weights must be finite and non-negative", w)
			}
			if w > 0 {
				positive = true
			}
		}
		if !positive {
			return validate.Fieldf("gslb", "Weights", "must contain at least one positive entry")
		}
	}
	if t := cfg.CapacityThreshold; t != DisabledThreshold && (math.IsNaN(t) || t < 0) {
		return validate.Fieldf("gslb", "CapacityThreshold", "= %v; must be >= 0 or DisabledThreshold (-1)", t)
	}
	if t := cfg.ErrorThreshold; t != DisabledThreshold && (math.IsNaN(t) || t < 0) {
		return validate.Fieldf("gslb", "ErrorThreshold", "= %v; must be >= 0 or DisabledThreshold (-1)", t)
	}
	if k := cfg.LatencyExponent; math.IsNaN(k) || math.IsInf(k, 0) || k < 0 {
		return validate.Fieldf("gslb", "LatencyExponent", "= %v; must be finite and >= 0", k)
	}
	if a := cfg.LatencyAlpha; math.IsNaN(a) || a < 0 || a > 1 {
		return validate.Fieldf("gslb", "LatencyAlpha", "= %v; must lie in [0, 1]", a)
	}
	if len(cfg.RTT) > 0 {
		known := make(map[string]bool, len(streams))
		for _, s := range streams {
			known[s] = true
		}
		for name, row := range cfg.RTT {
			if !known[name] {
				return validate.Fieldf("gslb", fmt.Sprintf("RTT[%q]", name), "names no population stream (streams: %s)", strings.Join(streams, ", "))
			}
			if len(row) != len(regions) {
				return validate.Fieldf("gslb", fmt.Sprintf("RTT[%q]", name), "has %d entries for %d regions", len(row), len(regions))
			}
			for r, ms := range row {
				if math.IsNaN(ms) || math.IsInf(ms, 0) || ms < 0 {
					return validate.Fieldf("gslb", fmt.Sprintf("RTT[%q][%d]", name, r), "= %v; must be finite and >= 0", ms)
				}
			}
		}
	}
	seen := make(map[string]bool, len(streams))
	for _, s := range streams {
		if seen[s] {
			return validate.Fieldf("gslb", "streams", "%q listed twice", s)
		}
		seen[s] = true
	}
	return nil
}

// Config returns the director configuration with defaults applied.
func (d *Director) Config() Config { return d.cfg }

// Regions returns the region names in deployment order.
func (d *Director) Regions() []string { return append([]string(nil), d.regions...) }

// Streams returns the population stream names in deployment order.
func (d *Director) Streams() []string { return append([]string(nil), d.streams...) }

// LatencyAware reports whether the director keeps per-lane latency estimates
// (and therefore expects Observe calls).
func (d *Director) LatencyAware() bool { return d.lanes != nil }

// Table returns the current routing-table snapshot.  When a Probe or Adopt
// moved the health state since the last build, it first folds the buffered
// latency observations and rebuilds the snapshot.  Control timeline only.
func (d *Director) Table() *Table {
	if d.stale {
		d.foldLatency()
		d.table = d.buildTable()
		d.stale = false
	}
	return d.table
}

// States returns the current health state of every region, in deployment
// order.
func (d *Director) States() []HealthState {
	out := make([]HealthState, len(d.health))
	for i := range d.health {
		out[i] = d.health[i].State
	}
	return out
}

// State returns the health state of region i.
func (d *Director) State(i int) HealthState { return d.health[i].State }

// Transitions returns every health-state change so far, in probe order.
func (d *Director) Transitions() []Transition { return append([]Transition(nil), d.trans...) }

// Probes returns the number of completed probe ticks.
func (d *Director) Probes() uint64 { return d.probes }

// Observe feeds one completed request's observed round trip (milliseconds)
// into the (stream, region) lane, weighted by the number of client
// interactions the request stood for (1 for a plain request, the batch size
// for a cohort batch).  Like Tick it must run on the control timeline:
// callers buffer observations per issuing lane and flush the buffers in
// lane-index order right before the probe tick, which keeps the
// floating-point fold — and therefore every estimate — byte-reproducible for
// any worker count.  No-op unless the director is latency-aware.
func (d *Director) Observe(stream, region int, rttMs float64, weight uint64) {
	if d.lanes == nil || stream < 0 || stream >= len(d.lanes) || region < 0 || region >= len(d.regions) {
		return
	}
	if weight == 0 {
		weight = 1
	}
	lane := &d.lanes[stream][region]
	lane.obsSum += rttMs * float64(weight)
	lane.obsCount += weight
	lane.quant.Add(rttMs)
}

// LatencyEstimateMs returns the current EWMA round-trip estimate of the
// (stream, region) lane in milliseconds (0 when the director is not
// latency-aware).
func (d *Director) LatencyEstimateMs(stream, region int) float64 {
	if d.lanes == nil {
		return 0
	}
	return d.lanes[stream][region].estMs
}

// LatencyP95Ms returns the lane's P² p95 round-trip estimate in milliseconds
// (0 before any observation, or when the director is not latency-aware).
func (d *Director) LatencyP95Ms(stream, region int) float64 {
	if d.lanes == nil {
		return 0
	}
	return d.lanes[stream][region].quant.Value()
}

// LatencyObservations returns how many interaction-weighted observations the
// lane's quantile sketch has folded in.
func (d *Director) LatencyObservations(stream, region int) uint64 {
	if d.lanes == nil {
		return 0
	}
	return d.lanes[stream][region].quant.Count()
}

// Tick runs one health probe: it probes every region, folds the buffered
// latency observations into the per-lane estimates and rebuilds the routing
// table.  It must run on the control timeline (exclusive access to the
// regions); the returned snapshot is what callers republish to their
// request-path readers.
func (d *Director) Tick(now simclock.Time) *Table {
	d.probes++
	for i := range d.health {
		d.Probe(i, now)
	}
	return d.Table()
}

// Probe samples region i's telemetry, advances its health state machine
// (logging a transition when the state moves) and returns the region's new
// state and capacity.  The routing table is rebuilt by the next Table call.
func (d *Director) Probe(i int, now simclock.Time) (HealthState, float64) {
	h := &d.health[i]
	from, to := h.probe(d.cfg, d.sample(i))
	if from != to {
		d.trans = append(d.trans, Transition{At: now, Region: d.regions[i], From: from, To: to})
	}
	d.stale = true
	return to, h.Capacity
}

// Adopt installs region i's state and capacity as another prober measured
// them, without touching the local streak counters.  The routing table is
// rebuilt by the next Table call.
func (d *Director) Adopt(i int, state HealthState, capacity float64) {
	d.health[i].State, d.health[i].Capacity = state, capacity
	d.stale = true
}

// foldLatency folds each lane's buffered observation interval into its EWMA
// estimate and resets the accumulators.  Lanes without observations keep
// their previous estimate — a drained region's lane goes stale rather than
// decaying, exactly what a passive learner sees.
func (d *Director) foldLatency() {
	for s := range d.lanes {
		for r := range d.lanes[s] {
			lane := &d.lanes[s][r]
			if lane.obsCount == 0 {
				continue
			}
			mean := lane.obsSum / float64(lane.obsCount)
			lane.estMs += d.cfg.LatencyAlpha * (mean - lane.estMs)
			lane.obsSum, lane.obsCount = 0, 0
		}
	}
}

// servingList returns the serving region indices in preference order.  When
// every region is drained, routing somewhere beats routing nowhere, so it
// falls back to the full preference order (the requests surface as
// drops/errors at the regions, which is the honest outcome).
func servingList(pref []int, health []regionHealth) []int {
	serving := make([]int, 0, len(pref))
	for _, i := range pref {
		if health[i].State.Serving() {
			serving = append(serving, i)
		}
	}
	if len(serving) == 0 {
		serving = append(serving, pref...)
	}
	return serving
}

// buildTable derives the immutable routing snapshot from the current health
// states, probe capacities and latency estimates.
func (d *Director) buildTable() *Table {
	serving := servingList(d.pref, d.health)
	t := &Table{mode: d.cfg.Policy, eligible: serving}
	switch d.cfg.Policy {
	case PolicyStatic:
		w := make([]float64, len(serving))
		for j, i := range serving {
			if len(d.cfg.Weights) == len(d.health) {
				w[j] = d.cfg.Weights[i]
			} else {
				w[j] = 1
			}
		}
		normalizeWeights(w)
		t.weights = simclock.NewWeights(w)
	case PolicyLeastLoad:
		w := make([]float64, len(serving))
		for j, i := range serving {
			w[j] = d.health[i].Capacity
		}
		normalizeWeights(w)
		t.weights = simclock.NewWeights(w)
	case PolicyLatency:
		t.rows = make([]simclock.Weights, len(d.lanes))
		for s := range d.lanes {
			row := make([]float64, len(serving))
			for j, i := range serving {
				est := d.lanes[s][i].estMs
				if est < latFloorMs {
					est = latFloorMs
				}
				row[j] = d.health[i].Capacity / math.Pow(est, d.cfg.LatencyExponent)
			}
			normalizeWeights(row)
			t.rows[s] = simclock.NewWeights(row)
		}
	}
	return t
}

// normalizeWeights repairs a degenerate weight row in place: when every
// entry is zero (the only statically weighted region drained, every
// survivor probed at capacity 0) or any entry is non-finite, the row
// degrades to uniform so every pick sees a well-defined distribution.
func normalizeWeights(w []float64) {
	total := 0.0
	for _, x := range w {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			total = 0
			break
		}
		total += x
	}
	if total > 0 {
		return
	}
	for i := range w {
		w[i] = 1
	}
}

// Table is an immutable routing snapshot.  It is safe for any number of
// concurrent readers; all mutable routing state (the RNG for weighted picks,
// the rotation cursor for round-robin) is owned by the caller, so two
// request streams never contend and every stream's routing sequence is a
// deterministic function of its own request sequence.  Its weights are
// prepared cumulative tables, built with the snapshot, so a route is one
// uniform draw and a scan.
type Table struct {
	mode     PolicyKind
	eligible []int              // serving region indices, preference-ordered
	weights  simclock.Weights   // aligned with eligible (static / least-load)
	rows     []simclock.Weights // latency policy: per-stream weights over eligible
}

// Eligible returns the serving region indices, preference-ordered.
func (t *Table) Eligible() []int { return append([]int(nil), t.eligible...) }

// Route picks the destination region index for one request of the first
// population stream.  rng supplies the weighted draw of the static,
// least-load and latency policies; rr is the caller's round-robin cursor
// (advanced only by the round-robin policy).
func (t *Table) Route(rng *simclock.RNG, rr *uint64) int {
	return t.RouteStream(0, rng, rr)
}

// RouteStream picks the destination region index for one request of the
// given population stream.  Only the latency policy differentiates streams
// (each has its own weight row); every other policy ignores the index.
func (t *Table) RouteStream(stream int, rng *simclock.RNG, rr *uint64) int {
	switch t.mode {
	case PolicyRoundRobin:
		i := t.eligible[int(*rr%uint64(len(t.eligible)))]
		*rr++
		return i
	case PolicyFailover:
		return t.eligible[0]
	case PolicyLatency:
		if stream < 0 || stream >= len(t.rows) {
			stream = 0
		}
		return t.eligible[t.rows[stream].Pick(rng)]
	default: // static, leastload
		return t.eligible[t.weights.Pick(rng)]
	}
}
