package backend

import (
	"repro/internal/acm"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Simulated is the simulator backend: an acm.Manager over the simclock
// engines (serial or sharded event loop, per the config).
type Simulated struct {
	mgr *acm.Manager
}

func init() {
	Register(KindSimulated, func(cfg acm.Config) (Backend, error) {
		return NewSimulated(cfg)
	})
}

// NewSimulated assembles the simulated deployment.
func NewSimulated(cfg acm.Config) (*Simulated, error) {
	mgr, err := acm.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	return &Simulated{mgr: mgr}, nil
}

// Manager exposes the underlying simulator for callers that need
// sim-specific surfaces (tests scheduling fault injection through the
// engine, the equivalence suites).  Live backends have no counterpart.
func (s *Simulated) Manager() *acm.Manager { return s.mgr }

// Run drives the simulation for the given horizon.
func (s *Simulated) Run(horizon simclock.Duration) error { return s.mgr.Run(horizon) }

// Recorder returns the experiment time-series recorder.
func (s *Simulated) Recorder() *trace.Recorder { return s.mgr.Recorder() }

// Metrics returns the client-side workload metrics, merged in the engine's
// fixed shard order.
func (s *Simulated) Metrics() *workload.Metrics { return s.mgr.Metrics() }

// Registry returns the simulator's instrument registry, updated at every
// control-era barrier.
func (s *Simulated) Registry() *metrics.Registry { return s.mgr.MetricsRegistry() }

// Results snapshots the end-of-run state.
func (s *Simulated) Results() Results {
	m := s.mgr
	leader, _ := m.Cluster().GlobalLeader()
	res := Results{
		RegionNames:       m.RegionNames(),
		Eras:              m.Eras(),
		ControlMessages:   m.ControlMessages(),
		ForwardedRequests: m.ForwardedRequests(),
		LocalRequests:     m.LocalRequests(),
		FinalFractions:    m.Loop().Fractions(),
		Leader:            leader,
		Elections:         m.Cluster().Elections(),
		RegionStats:       m.RegionStats(),
		ShardStats:        m.ShardStats(),
		VMCStats:          m.VMCStats(),
		Gossip:            m.GossipStats(),
	}

	p := m.HealthPlane()
	if p == nil {
		return res
	}
	d := p.Director(0)
	g := &GSLBReport{
		Policy:      string(d.Config().Policy),
		Replicated:  p.NumReplicas() > 1,
		Probes:      p.Probes(),
		Routed:      m.GSLBRouted(),
		Transitions: m.GSLBTransitions(),
	}
	for _, st := range p.OwnerStates() {
		g.States = append(g.States, st.String())
	}
	if d.LatencyAware() {
		g.Streams = d.Streams()
		g.LatencyEWMA, g.LatencyP95 = m.GSLBLatencyEstimates()
	}
	res.GSLB = g
	return res
}
