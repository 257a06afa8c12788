// Package backend is the seam between experiment orchestration and whatever
// actually runs a deployment.  A Backend is constructed from an assembled
// acm.Config, steps the deployment to a horizon, and exposes the three read
// surfaces every caller consumes: the recorder (figure series), the workload
// metrics (client-side counters), and the typed instrument registry (the
// /metrics scrape surface), plus a plain-data Results snapshot for reports.
//
// The simulator (acm.Manager over the simclock engines) is the one
// implementation, built by NewSimulated.
package backend

import (
	"repro/internal/cloudsim"
	"repro/internal/gossip"
	"repro/internal/metrics"
	"repro/internal/pcam"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Backend is one runnable deployment.
type Backend interface {
	// Run drives the deployment for the given horizon.  It can be called
	// once per Backend.
	Run(horizon simclock.Duration) error
	// Recorder returns the experiment time-series recorder.
	Recorder() *trace.Recorder
	// Metrics returns the client-side workload metrics (merged across
	// whatever internal parallelism the backend runs).
	Metrics() *workload.Metrics
	// Registry returns the typed instrument registry, live during Run —
	// the surface an HTTP /metrics handler scrapes.
	Registry() *metrics.Registry
	// Results returns the end-of-run summary snapshot.
	Results() Results
}

// Results is the plain-data end-of-run state of a deployment: everything the
// experiment summaries and CLI reports read, with no reference back into the
// backend's machinery.
type Results struct {
	// RegionNames in deployment order.
	RegionNames []string
	// Control-loop counters.
	Eras              uint64
	ControlMessages   uint64
	ForwardedRequests uint64
	LocalRequests     uint64
	// FinalFractions is the last workload split the control loop installed,
	// in deployment order.
	FinalFractions []float64
	// Leader is the final control-loop leader; Elections counts leader
	// elections run.
	Leader    string
	Elections uint64
	// Region / controller telemetry.
	RegionStats []cloudsim.Stats
	ShardStats  map[string][]cloudsim.Stats
	VMCStats    map[string]pcam.Stats
	// Gossip carries the health plane's gossip protocol counters (nil with
	// fewer than two replicas).
	Gossip *gossip.Stats
	// GSLB carries the global traffic plane's view (nil when disabled).
	GSLB *GSLBReport
}

// GSLBReport is the global traffic plane's end-of-run view, as the region
// owners see it.
type GSLBReport struct {
	// Policy is the routing policy kind.
	Policy string
	// Replicated marks a plane of more than one replica (a gossip
	// deployment); one replica is the central director.
	Replicated bool
	// Probes counts the health probe ticks run.
	Probes uint64
	// Routed counts requests routed to each region, keyed by region name.
	Routed map[string]uint64
	// States holds the final health-state names in deployment order.
	States []string
	// Transitions is the health transition log, one entry per line.
	Transitions []string
	// Streams lists the population streams of a latency-aware director, in
	// deployment order; LatencyEWMA/LatencyP95 are its learned round trips
	// in milliseconds, keyed "stream:region".  All nil otherwise.
	Streams     []string
	LatencyEWMA map[string]float64
	LatencyP95  map[string]float64
}
