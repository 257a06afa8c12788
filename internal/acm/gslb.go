// Global-traffic-director wiring of a deployment: the Manager seam that
// attaches client populations and open-loop arrival streams *globally* —
// to the health plane (a gossip.Plane of one or more gslb.Director replicas)
// that picks the serving region per request — instead of pinning them to
// one region, plus the scripted region-outage schedule that gives the
// director's health-driven failover something to react to.
//
// Determinism: global routing crosses region sub-engines, so it rides the
// event loop's mailbox machinery.  The plane's probe and gossip rounds run
// on the control timeline; each lane's dispatcher reads an immutable
// routing-table snapshot republished at epoch barriers and owns its
// RNG/rotation state, so the output is byte-identical for every
// EventWorkers value.
package acm

import (
	"fmt"
	"math"

	"repro/internal/cloudsim"
	"repro/internal/gossip"
	"repro/internal/gslb"
	"repro/internal/simclock"
	"repro/internal/validate"
	"repro/internal/workload"
)

// ArrivalSetup attaches one open-loop request stream to the deployment.
type ArrivalSetup struct {
	// Name labels the stream ("americas"); it becomes the metrics label and
	// the EntryRegion of the stream's requests.
	Name string
	// Rate is the (possibly time-varying) arrival rate.
	Rate workload.RateSpec
	// Mix is the interaction mix (browsing when zero-valued).
	Mix workload.Mix
	// Region optionally pins the stream to one region's entry load balancer
	// (riding the global forward plan like that region's browsers).  Empty
	// attaches the stream to the global traffic director, which requires
	// Config.GSLB to be enabled.
	Region string
}

// RegionFault scripts one region outage for failover experiments: at time At
// the region's controller target is forced down to KeepActive ACTIVE VMs
// (the excess deactivates immediately, in-flight requests drain), and after
// Duration the previous target is restored so the next control tick
// repromotes the pool.  KeepActive = 0 blacks the region out completely.
type RegionFault struct {
	// Region names the region to fault.
	Region string
	// At is when the outage starts.
	At simclock.Duration
	// Duration is how long the outage lasts; zero makes it permanent.
	Duration simclock.Duration
	// KeepActive is the number of ACTIVE VMs left during the outage.
	KeepActive int
}

// LinkFault scripts one network-path degradation for latency-routing
// experiments: at time At the ground-truth round trip between one population
// stream and one region is multiplied by Factor (2 = the classic submarine
// cable cut forcing traffic the long way round), and after Duration the
// previous value is restored; zero Duration makes the cut permanent.  The
// director is never told — it learns the new RTT passively from observed
// completions, which is exactly the traffic shift the cable-cut scenarios
// pin.  Requires a latency-aware GSLB config with an RTT row for Stream.
type LinkFault struct {
	// Stream names the population stream whose path degrades ("global" for
	// the director-attached browsers/cohorts, or a global arrival name).
	Stream string
	// Region names the region at the far end of the path.
	Region string
	// At is when the degradation starts.
	At simclock.Duration
	// Duration is how long it lasts; zero makes it permanent.
	Duration simclock.Duration
	// Factor multiplies the path's RTT; must be positive and finite
	// (2 doubles it, 0.5 would model a better route coming up).
	Factor float64
}

// PartitionFault scripts one network partition of the gossip health plane:
// at time At the listed replicas are cut off from the rest (cross-side
// gossip messages are dropped), and after Duration the plane heals and the
// sides reconcile.  During the cut each side keeps converging internally,
// so lanes homed to the isolated replicas route on views frozen at the
// split — the split-brain behaviour the global-partition scenario pins.
// Zero Duration makes the partition permanent.
type PartitionFault struct {
	// At is when the partition starts.
	At simclock.Duration
	// Duration is how long it lasts; zero makes it permanent.
	Duration simclock.Duration
	// Replicas lists the replica indices forming the isolated side; the
	// remaining replicas form the other.  Both sides must be non-empty.
	Replicas []int
}

// validateGlobal rejects configurations the global-traffic wiring cannot
// realise, with errors that name the offending field.
func (m *Manager) validateGlobal() error {
	cfg := m.cfg
	if cfg.GlobalClients < 0 {
		return validate.Fieldf("acm", "GlobalClients", "must be >= 0, got %d", cfg.GlobalClients)
	}
	if cfg.GlobalClients > 0 && !cfg.GSLB.Enabled() {
		return validate.Fieldf("acm", "GlobalClients", "= %d but no GSLB policy configured", cfg.GlobalClients)
	}
	if cfg.CohortClients < 0 {
		return validate.Fieldf("acm", "CohortClients", "must be >= 0, got %d", cfg.CohortClients)
	}
	if cfg.CohortClients > 0 && !cfg.GSLB.Enabled() {
		return validate.Fieldf("acm", "CohortClients", "= %d global cohort clients but no GSLB policy configured", cfg.CohortClients)
	}
	if cfg.TracerFraction < 0 || cfg.TracerFraction > 1 {
		return validate.Fieldf("acm", "TracerFraction", "must be in [0, 1], got %v", cfg.TracerFraction)
	}
	if f := cfg.TraceSampleFraction; math.IsNaN(f) || f < 0 || f > 1 {
		return validate.Fieldf("acm", "TraceSampleFraction", "must be in [0, 1], got %v", f)
	}
	for i, rs := range cfg.Regions {
		if rs.CohortClients < 0 {
			return validate.Fieldf("acm", fmt.Sprintf("Regions[%d].CohortClients", i), "(%s) must be >= 0, got %d", rs.Region.Name, rs.CohortClients)
		}
	}
	seen := map[string]bool{}
	for i, a := range cfg.Arrivals {
		if a.Name == "" {
			return validate.Fieldf("acm", fmt.Sprintf("Arrivals[%d]", i), "has no name")
		}
		if seen[a.Name] {
			return validate.Fieldf("acm", fmt.Sprintf("Arrivals[%d].Name", i), "%q listed twice", a.Name)
		}
		seen[a.Name] = true
		// The name doubles as the stream's metrics label: colliding with a
		// region name would fold the stream's counters into that region's
		// entry-share accounting, and "global" is the global browsers' label.
		if _, taken := m.regionIndex[a.Name]; taken || a.Name == "global" {
			return validate.Fieldf("acm", fmt.Sprintf("Arrivals[%d].Name", i), "%q collides with a region/global metrics label", a.Name)
		}
		if err := a.Rate.Validate(); err != nil {
			return fmt.Errorf("acm: Arrivals[%d] (%s): %w", i, a.Name, err)
		}
		if a.Region == "" {
			if !cfg.GSLB.Enabled() {
				return validate.Fieldf("acm", fmt.Sprintf("Arrivals[%d]", i), "stream %q attaches globally but no GSLB policy is configured", a.Name)
			}
		} else if _, ok := m.regionIndex[a.Region]; !ok {
			return validate.Fieldf("acm", fmt.Sprintf("Arrivals[%d].Region", i), "pins stream %q to unknown region %q", a.Name, a.Region)
		}
	}
	for i, f := range cfg.Faults {
		if _, ok := m.regionIndex[f.Region]; !ok {
			return validate.Fieldf("acm", fmt.Sprintf("Faults[%d].Region", i), "names unknown region %q", f.Region)
		}
		if f.At < 0 || f.Duration < 0 || f.KeepActive < 0 {
			return validate.Fieldf("acm", fmt.Sprintf("Faults[%d]", i), "for %s has negative At/Duration/KeepActive", f.Region)
		}
		// Overlapping outages on one region would interleave their
		// force/restore pairs: the earlier fault's restore would end the
		// later outage early and the later restore would reinstate a stale
		// target.
		for j, g := range cfg.Faults[:i] {
			if g.Region == f.Region && windowsOverlap(g.At, g.Duration, f.At, f.Duration) {
				return validate.Fieldf("acm", "Faults", "%d and %d overlap on region %s (a permanent fault conflicts with any later one)", j, i, f.Region)
			}
		}
	}
	if len(cfg.LinkFaults) > 0 && !cfg.GSLB.LatencyAware() {
		return validate.Fieldf("acm", "LinkFaults", "require a latency-aware GSLB config (latency policy or an RTT matrix)")
	}
	if err := m.validateGossip(); err != nil {
		return err
	}
	streamKnown := map[string]bool{}
	for _, s := range m.globalStreamNames() {
		streamKnown[s] = true
	}
	for i, f := range cfg.LinkFaults {
		if !streamKnown[f.Stream] {
			return validate.Fieldf("acm", fmt.Sprintf("LinkFaults[%d].Stream", i), "names unknown population stream %q", f.Stream)
		}
		if _, ok := m.regionIndex[f.Region]; !ok {
			return validate.Fieldf("acm", fmt.Sprintf("LinkFaults[%d].Region", i), "names unknown region %q", f.Region)
		}
		if len(cfg.GSLB.RTT[f.Stream]) == 0 {
			return validate.Fieldf("acm", fmt.Sprintf("LinkFaults[%d]", i), "degrades stream %q, which has no GSLB.RTT row (the ground-truth path would stay at 0 ms)", f.Stream)
		}
		if f.At < 0 || f.Duration < 0 {
			return validate.Fieldf("acm", fmt.Sprintf("LinkFaults[%d]", i), "for %s:%s has negative At/Duration", f.Stream, f.Region)
		}
		if !(f.Factor > 0) || math.IsInf(f.Factor, 0) {
			return validate.Fieldf("acm", fmt.Sprintf("LinkFaults[%d].Factor", i), "= %v for %s:%s; must be positive and finite", f.Factor, f.Stream, f.Region)
		}
		// Like region faults, overlapping degradations of one path would
		// interleave their scale/restore pairs and reinstate stale values.
		for j, g := range cfg.LinkFaults[:i] {
			if g.Stream == f.Stream && g.Region == f.Region && windowsOverlap(g.At, g.Duration, f.At, f.Duration) {
				return validate.Fieldf("acm", "LinkFaults", "%d and %d overlap on %s:%s (a permanent fault conflicts with any later one)", j, i, f.Stream, f.Region)
			}
		}
	}
	return nil
}

// validateGossip rejects health-plane configurations the wiring cannot
// realise.  One replica (GossipReplicas 0 or 1) is the central director and
// sends no messages, so every gossip tuning field needs at least two.
func (m *Manager) validateGossip() error {
	cfg := m.cfg
	if cfg.GossipReplicas < 0 {
		return validate.Fieldf("acm", "GossipReplicas", "must be >= 0, got %d", cfg.GossipReplicas)
	}
	if cfg.GossipReplicas < 2 {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"GossipInterval", cfg.GossipInterval != 0},
			{"GossipFanout", cfg.GossipFanout != 0},
			{"GossipDelay", cfg.GossipDelay != 0},
			{"GossipLoss", cfg.GossipLoss != 0},
			{"PartitionFaults", len(cfg.PartitionFaults) > 0},
		} {
			if f.set {
				return validate.Fieldf("acm", f.name, "requires GossipReplicas >= 2, got %d (one replica sends no gossip)", cfg.GossipReplicas)
			}
		}
		if cfg.GossipReplicas == 1 && !cfg.GSLB.Enabled() {
			return validate.Fieldf("acm", "GossipReplicas", "= 1 but no GSLB policy configured")
		}
		return nil
	}
	if !cfg.GSLB.Enabled() {
		return validate.Fieldf("acm", "GossipReplicas", "= %d but no GSLB policy configured", cfg.GossipReplicas)
	}
	if cfg.GSLB.LatencyAware() {
		return validate.Fieldf("acm", "GossipReplicas", "= %d cannot run a latency-aware GSLB config (its passive estimators learn from every lane); use one replica", cfg.GossipReplicas)
	}
	if cfg.GossipInterval < 0 || cfg.GossipDelay < 0 {
		return validate.Fieldf("acm", "GossipInterval/GossipDelay", "must be >= 0")
	}
	if cfg.GossipFanout < 0 {
		return validate.Fieldf("acm", "GossipFanout", "= %d; must be >= 0", cfg.GossipFanout)
	}
	if l := cfg.GossipLoss; math.IsNaN(l) || l < 0 || l >= 1 {
		return validate.Fieldf("acm", "GossipLoss", "= %v; must lie in [0, 1)", l)
	}
	for i, f := range cfg.PartitionFaults {
		if f.At < 0 || f.Duration < 0 {
			return validate.Fieldf("acm", fmt.Sprintf("PartitionFaults[%d]", i), "has negative At/Duration")
		}
		if len(f.Replicas) == 0 || len(f.Replicas) >= cfg.GossipReplicas {
			return validate.Fieldf("acm", fmt.Sprintf("PartitionFaults[%d].Replicas", i), "must isolate between 1 and %d replicas, got %d", cfg.GossipReplicas-1, len(f.Replicas))
		}
		seen := map[int]bool{}
		for _, r := range f.Replicas {
			if r < 0 || r >= cfg.GossipReplicas {
				return validate.Fieldf("acm", fmt.Sprintf("PartitionFaults[%d].Replicas", i), "names replica %d outside [0, %d)", r, cfg.GossipReplicas)
			}
			if seen[r] {
				return validate.Fieldf("acm", fmt.Sprintf("PartitionFaults[%d].Replicas", i), "lists replica %d twice", r)
			}
			seen[r] = true
		}
		// The plane holds one partition state, so concurrent splits would
		// interleave their Isolate/Heal pairs like overlapping region faults.
		for j, g := range cfg.PartitionFaults[:i] {
			if windowsOverlap(g.At, g.Duration, f.At, f.Duration) {
				return validate.Fieldf("acm", "PartitionFaults", "%d and %d overlap (a permanent partition conflicts with any later one)", j, i)
			}
		}
	}
	return nil
}

// windowsOverlap reports whether two scripted faults on one target, each
// starting at At and restored Duration later (never, for a zero Duration),
// conflict.  A permanent fault conflicts with any later one.  Back-to-back
// faults (one starting the instant the other restores) conflict too: the
// engine's same-timestamp FIFO order would run the second start before the
// first restore.
func windowsOverlap(aAt, aDur, bAt, bDur simclock.Duration) bool {
	if bAt < aAt {
		aAt, aDur, bAt = bAt, bDur, aAt
	}
	return aDur == 0 || bAt <= aAt+aDur
}

// scheduleWindow arms one scripted fault on the control timeline: start runs
// at `at` and returns the restore, which runs dur later.  A zero dur makes
// the fault permanent, and its restore never runs.
func (m *Manager) scheduleWindow(at, dur simclock.Duration, start func() (restore func())) {
	m.eng.ScheduleFunc(at, func(e *simclock.Engine) {
		restore := start()
		if dur > 0 {
			e.ScheduleFunc(dur, func(*simclock.Engine) { restore() })
		}
	})
}

// globalStreamNames returns the director's population streams in deployment
// order: the global browser/cohort label first, then every globally attached
// arrival stream in configuration order.  The order is the latency
// estimator's stream indexing, so it is part of the determinism contract.
func (m *Manager) globalStreamNames() []string {
	streams := []string{"global"}
	for _, a := range m.cfg.Arrivals {
		if a.Region == "" {
			streams = append(streams, a.Name)
		}
	}
	return streams
}

// buildDirector assembles the health plane over the deployment's regions:
// max(1, GossipReplicas) gslb.Director replicas, each probing its owned
// regions' live telemetry.  One replica is the central director.
func (m *Manager) buildDirector() error {
	if !m.cfg.GSLB.Enabled() {
		return nil
	}
	p, err := gossip.New(gossip.Config{
		Replicas: max(1, m.cfg.GossipReplicas),
		Interval: m.cfg.GossipInterval,
		Fanout:   m.cfg.GossipFanout,
		Delay:    m.cfg.GossipDelay,
		Loss:     m.cfg.GossipLoss,
	}, m.cfg.GSLB, m.regionNames, m.globalStreamNames(), m.cfg.Seed^hashString("gossip"),
		func(i int) cloudsim.Telemetry { return m.regions[i].Telemetry() })
	if err != nil {
		return fmt.Errorf("acm: %w", err)
	}
	m.plane = p
	return nil
}

// startDirector installs the health plane's control-timeline tickers.  The
// probe tick flushes every lane's buffered latency observations into its
// home replica (in lane order, so the estimator folds are byte-reproducible),
// advances each owning replica's health state machines and republishes every
// replica's table to its homed lanes.  With more than one replica a second
// ticker runs the push-pull gossip rounds; one replica has nobody to gossip
// with, so it gets no round timer.
func (m *Manager) startDirector() {
	if m.plane == nil {
		return
	}
	m.stopProbe = m.eng.Ticker(m.plane.Director(0).Config().ProbeInterval, func(eng *simclock.Engine) {
		m.el.flushGSLBObs(m.plane)
		m.plane.ProbeTick(eng.Now())
		m.el.installPlaneTables(m.plane)
	})
	if m.plane.NumReplicas() > 1 {
		m.stopGossip = m.eng.Ticker(m.plane.Interval(), func(eng *simclock.Engine) {
			m.plane.GossipTick(eng.Now())
			m.el.installPlaneTables(m.plane)
		})
	}
}

// scheduleLinkFaults arms the scripted network-path degradations on the
// control timeline.  Validation guaranteed a latency-aware GSLB deployment.
func (m *Manager) scheduleLinkFaults() {
	if len(m.cfg.LinkFaults) == 0 {
		return
	}
	streamIndex := map[string]int{}
	for i, s := range m.globalStreamNames() {
		streamIndex[s] = i
	}
	for _, f := range m.cfg.LinkFaults {
		s, r := streamIndex[f.Stream], m.regionIndex[f.Region]
		m.scheduleWindow(f.At, f.Duration, func() func() {
			prev := m.el.scaleLinkRTT(s, r, f.Factor)
			return func() { m.el.setLinkRTT(s, r, prev) }
		})
	}
}

// schedulePartitionFaults arms the scripted gossip-plane splits on the
// control timeline.
func (m *Manager) schedulePartitionFaults() {
	for _, f := range m.cfg.PartitionFaults {
		m.scheduleWindow(f.At, f.Duration, func() func() {
			m.plane.Isolate(f.Replicas)
			return m.plane.Heal
		})
	}
}

// scheduleFaults arms the scripted region outages on the control timeline.
func (m *Manager) scheduleFaults() {
	for _, f := range m.cfg.Faults {
		vmc := m.VMC(f.Region)
		m.scheduleWindow(f.At, f.Duration, func() func() {
			restore := vmc.ForceTargetActive(f.KeepActive)
			return func() { vmc.RestoreTargetActive(restore) }
		})
	}
}

// HealthPlane returns the global health plane (nil when GSLB is disabled).
// A one-replica plane is the central director.
func (m *Manager) HealthPlane() *gossip.Plane { return m.plane }

// GossipStats returns the gossip protocol and convergence counters (nil
// unless the plane runs more than one replica).
func (m *Manager) GossipStats() *gossip.Stats {
	if m.plane == nil || m.plane.NumReplicas() < 2 {
		return nil
	}
	s := m.plane.Stats()
	return &s
}

// GSLBRouted returns how many requests the global health plane routed to
// each region, keyed by region name (nil when GSLB is disabled).  The
// per-lane counters are folded in lane order.
func (m *Manager) GSLBRouted() map[string]uint64 {
	if m.plane == nil {
		return nil
	}
	out := map[string]uint64{}
	totals := m.el.mergedGSLBRouted()
	for i, name := range m.regionNames {
		out[name] = totals[i]
	}
	return out
}

// GSLBRoutedPerLane returns the per-lane routed counters ([lane][region]),
// the view that tells split-brain stories apart: each lane's row reflects
// its home replica's view of the world.  Nil when GSLB is disabled.
func (m *Manager) GSLBRoutedPerLane() [][]uint64 {
	if m.plane == nil {
		return nil
	}
	out := make([][]uint64, len(m.el.gslbRouted))
	for g := range m.el.gslbRouted {
		out[g] = append([]uint64(nil), m.el.gslbRouted[g]...)
	}
	return out
}

// GSLBTransitions returns the health plane's state transitions rendered one
// per line ("t=630s region1 degraded->drained"), in probe order — the
// drain/failover/failback record the scenario goldens pin.  These are the
// authoritative transitions as seen by region owners.
func (m *Manager) GSLBTransitions() []string {
	if m.plane == nil {
		return nil
	}
	trans := m.plane.Transitions()
	out := make([]string, len(trans))
	for i, t := range trans {
		out[i] = t.String()
	}
	return out
}

// latencyDirector returns the director that keeps latency estimates: the
// single replica of a latency-aware plane (nil otherwise).
func (m *Manager) latencyDirector() *gslb.Director {
	if m.plane == nil || !m.plane.Director(0).LatencyAware() {
		return nil
	}
	return m.plane.Director(0)
}

// GSLBLatencyEstimates returns the director's learned round-trip estimates
// in milliseconds, keyed "stream:region": the EWMA the routing weights use
// and the P² p95 of the raw observations.  Both maps are nil unless the
// deployment is latency-aware.
func (m *Manager) GSLBLatencyEstimates() (ewma, p95 map[string]float64) {
	d := m.latencyDirector()
	if d == nil {
		return nil, nil
	}
	ewma = map[string]float64{}
	p95 = map[string]float64{}
	for s, sname := range d.Streams() {
		for r, rname := range m.regionNames {
			key := sname + ":" + rname
			ewma[key] = d.LatencyEstimateMs(s, r)
			p95[key] = d.LatencyP95Ms(s, r)
		}
	}
	return ewma, p95
}
