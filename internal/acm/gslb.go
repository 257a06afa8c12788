// Global-traffic-director wiring of a deployment: the Manager seam that
// attaches client populations and open-loop arrival streams *globally* —
// to the health plane (a gossip.Plane of one or more gslb.Director replicas)
// that picks the serving region per request — instead of pinning them to
// one region.  The scripted faults the director reacts to are in faults.go.
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

	"repro/internal/cloudsim"
	"repro/internal/gossip"
	"repro/internal/gslb"
	"repro/internal/simclock"
	"repro/internal/validate"
	"repro/internal/workload"
)

// ArrivalSetup attaches one open-loop request stream to the deployment.
type ArrivalSetup struct {
	// Name labels the stream ("americas") in the metrics and the traces.
	Name string
	// Rate is the (possibly time-varying) arrival rate.
	Rate workload.RateSpec
	// Mix is the interaction mix (workload fills a zero-valued one with the
	// browsing mix).
	Mix workload.Mix
	// Region optionally pins the stream to one region's entry load balancer
	// (riding the global forward plan like that region's browsers).  Empty
	// attaches the stream to the global traffic director, which requires
	// Config.GSLB to be enabled.
	Region string
}

// validateGlobal rejects configurations the global-traffic wiring cannot
// realise, with errors that name the offending field.
func (m *Manager) validateGlobal() error {
	cfg := m.cfg
	if cfg.GlobalClients > 0 && !cfg.GSLB.Enabled() {
		return validate.Fieldf("acm", "GlobalClients", "= %d but no GSLB policy configured", cfg.GlobalClients)
	}
	if cfg.CohortClients > 0 && !cfg.GSLB.Enabled() {
		return validate.Fieldf("acm", "CohortClients", "= %d global cohort clients but no GSLB policy configured", cfg.CohortClients)
	}
	if err := validateMix("GlobalMix", cfg.GlobalMix); err != nil {
		return err
	}
	for i, rs := range cfg.Regions {
		if err := validateMix(fmt.Sprintf("Regions[%d].Mix", i), rs.Mix); err != nil {
			return err
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
		if err := validateMix(fmt.Sprintf("Arrivals[%d].Mix", i), a.Mix); err != nil {
			return err
		}
		if a.Region == "" {
			if !cfg.GSLB.Enabled() {
				return validate.Fieldf("acm", fmt.Sprintf("Arrivals[%d]", i), "stream %q attaches globally but no GSLB policy is configured", a.Name)
			}
		} else if _, ok := m.regionIndex[a.Region]; !ok {
			return validate.Fieldf("acm", fmt.Sprintf("Arrivals[%d].Region", i), "pins stream %q to unknown region %q", a.Name, a.Region)
		}
	}
	return m.validateGossip()
}

// validateMix rejects an interaction mix a client population could not draw
// from.  The zero-valued mix stands for the browsing mix.  NewManager's
// validate.Struct has already checked every weight and service factor, so
// only the mix's shape is left.
func validateMix(field string, mix workload.Mix) error {
	if mix.Name == "" && len(mix.Entries) == 0 {
		return nil
	}
	if err := mix.ValidateShape(); err != nil {
		return validate.Fieldf("acm", field, "is invalid: %v", err)
	}
	return nil
}

// validateGossip rejects health-plane configurations the wiring cannot
// realise.  One replica (GossipReplicas 0 or 1) is the central director and
// sends no messages, so every gossip tuning field needs at least two.
func (m *Manager) validateGossip() error {
	cfg := m.cfg
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
	return nil
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
		m.stopGossip = m.eng.Ticker(m.plane.Config().Interval, func(eng *simclock.Engine) {
			m.plane.GossipTick(eng.Now())
			m.el.installPlaneTables(m.plane)
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
