// The Manager's typed metrics plane: every value the deployment tracks —
// the paper's control-loop values, the workload counters and latency
// distribution, region/controller telemetry, GSLB health and routing, gossip
// convergence — expressed as instruments in a metrics.Registry, the registry
// an `acmsim -metrics-addr` scrape reads mid-run.  The registry is the only
// write target for era values: the recorder's time series (the CSV sets the
// figures and goldens read) are sampled from it by sampleSeries.
//
// Determinism: publishMetrics and sampleSeries run only at the end of
// controlEra, on the control timeline at an epoch barrier, and read exactly
// the merged views (currentMetrics, GSLBRouted, plane/director state) of that
// era.  No simulation state ever depends on an instrument, so the sampled
// series and the exposition are byte-identical for every EventWorkers value.
package acm

import (
	"fmt"
	"strings"

	"repro/internal/gslb"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// managerMetrics holds the Manager's registered instruments.  GSLB, RTT and
// gossip families are nil unless the deployment wires the corresponding
// plane, so a scrape only ever shows families the run can populate.
type managerMetrics struct {
	reg *metrics.Registry

	// control-loop values (sampled into the figure series)
	rmttf       *metrics.Gauge
	fraction    *metrics.Gauge
	activeVMs   *metrics.Gauge
	respTime    *metrics.Gauge
	lambda      *metrics.Gauge
	crossRegion *metrics.Gauge
	eras        *metrics.Counter
	controlMsgs *metrics.Counter
	localReqs   *metrics.Counter
	forwarded   *metrics.Counter

	// client-side workload counters and latency distribution
	wlIssued    *metrics.Counter
	wlCompleted *metrics.Counter
	wlDropped   *metrics.Counter
	wlTimeouts  *metrics.Counter
	wlSLAMiss   *metrics.Counter
	respHist    *metrics.Histogram

	// region / controller telemetry
	csServed      *metrics.Counter
	csDropped     *metrics.Counter
	csCrashes     *metrics.Counter
	pcamProactive *metrics.Counter
	pcamReactive  *metrics.Counter

	// global traffic director / gossip health plane
	gslbHealth   *metrics.Gauge
	gslbRouted   *metrics.Counter
	gslbProbes   *metrics.Counter
	rttEwma      *metrics.Gauge
	gsDivergence *metrics.Gauge
	gsRounds     *metrics.Counter
	gsSent       *metrics.Counter
	gsDelivered  *metrics.Counter
	gsDropped    *metrics.Counter
}

// buildMetrics registers the deployment's instrument families.  Runs in
// NewManager after the director/plane wiring, so the conditional families
// match the deployment's shape.
func (m *Manager) buildMetrics() {
	reg := metrics.NewRegistry()
	mm := &managerMetrics{reg: reg}

	mm.rmttf = reg.Gauge(metrics.Opts{Name: "acm_rmttf_seconds", Help: "Smoothed residual mean time to failure per region, sampled each control era.", Source: "internal/acm", Labels: []string{"region"}})
	mm.fraction = reg.Gauge(metrics.Opts{Name: "acm_workload_fraction", Help: "Workload fraction the control loop assigns to each region.", Source: "internal/acm", Labels: []string{"region"}})
	mm.activeVMs = reg.Gauge(metrics.Opts{Name: "acm_active_vms", Help: "ACTIVE VMs per region at the last control era.", Source: "internal/acm", Labels: []string{"region"}})
	mm.respTime = reg.Gauge(metrics.Opts{Name: "acm_interval_response_time_seconds", Help: "Mean client response time over the last control interval.", Source: "internal/acm"})
	mm.lambda = reg.Gauge(metrics.Opts{Name: "acm_lambda_requests_per_second", Help: "Global request arrival rate measured over the last control interval.", Source: "internal/acm"})
	mm.crossRegion = reg.Gauge(metrics.Opts{Name: "acm_cross_region_fraction", Help: "Fraction of entry traffic the forward plan sends to another region.", Source: "internal/acm"})
	mm.eras = reg.Counter(metrics.Opts{Name: "acm_control_eras_total", Help: "Completed control eras.", Source: "internal/acm"})
	mm.controlMsgs = reg.Counter(metrics.Opts{Name: "acm_control_messages_total", Help: "Controller-to-controller messages exchanged by the control loop.", Source: "internal/acm"})
	mm.localReqs = reg.Counter(metrics.Opts{Name: "acm_requests_local_total", Help: "Requests processed in their entry region.", Source: "internal/acm"})
	mm.forwarded = reg.Counter(metrics.Opts{Name: "acm_requests_forwarded_total", Help: "Requests forwarded to a region other than their entry region.", Source: "internal/acm"})

	mm.wlIssued = reg.Counter(metrics.Opts{Name: "workload_requests_issued_total", Help: "Requests issued by clients, per population stream label.", Source: "internal/workload", Labels: []string{"stream"}})
	mm.wlCompleted = reg.Counter(metrics.Opts{Name: "workload_requests_completed_total", Help: "Requests completed successfully, per population stream label.", Source: "internal/workload", Labels: []string{"stream"}})
	mm.wlDropped = reg.Counter(metrics.Opts{Name: "workload_requests_dropped_total", Help: "Requests dropped, per population stream label.", Source: "internal/workload", Labels: []string{"stream"}})
	mm.wlTimeouts = reg.Counter(metrics.Opts{Name: "workload_request_timeouts_total", Help: "Requests abandoned client-side after the configured timeout.", Source: "internal/workload", Labels: []string{"stream"}})
	mm.wlSLAMiss = reg.Counter(metrics.Opts{Name: "workload_sla_violations_total", Help: "Completed requests whose response time exceeded the 1-second SLA.", Source: "internal/workload", Labels: []string{"stream"}})
	mm.respHist = reg.Histogram(metrics.Opts{Name: "workload_response_time_seconds", Help: "Client-observed response time distribution over all individually simulated clients.", Source: "internal/workload"}, workload.ResponseTimeBuckets)

	mm.csServed = reg.Counter(metrics.Opts{Name: "cloudsim_requests_served_total", Help: "Requests served by the region's VMs.", Source: "internal/cloudsim", Labels: []string{"region"}})
	mm.csDropped = reg.Counter(metrics.Opts{Name: "cloudsim_requests_dropped_total", Help: "Requests dropped inside the region (no serving capacity).", Source: "internal/cloudsim", Labels: []string{"region"}})
	mm.csCrashes = reg.Counter(metrics.Opts{Name: "cloudsim_vm_crashes_total", Help: "VM ageing crashes per region.", Source: "internal/cloudsim", Labels: []string{"region"}})
	mm.pcamProactive = reg.Counter(metrics.Opts{Name: "pcam_proactive_rejuvenations_total", Help: "Rejuvenations the controller scheduled before predicted failure.", Source: "internal/pcam", Labels: []string{"region"}})
	mm.pcamReactive = reg.Counter(metrics.Opts{Name: "pcam_reactive_recoveries_total", Help: "Recoveries after unpredicted VM crashes.", Source: "internal/pcam", Labels: []string{"region"}})

	if m.director != nil || m.plane != nil {
		mm.gslbHealth = reg.Gauge(metrics.Opts{Name: "gslb_region_health", Help: "Region health state as seen by the health plane (0 healthy, 1 degraded, 2 drained, 3 recovering).", Source: "internal/gslb", Labels: []string{"region"}})
		mm.gslbRouted = reg.Counter(metrics.Opts{Name: "gslb_routed_requests_total", Help: "Requests the global traffic director routed to each region.", Source: "internal/gslb", Labels: []string{"region"}})
	}
	if m.director != nil {
		mm.gslbProbes = reg.Counter(metrics.Opts{Name: "gslb_probes_total", Help: "Health probes the central director has run.", Source: "internal/gslb"})
		if m.director.LatencyAware() {
			mm.rttEwma = reg.Gauge(metrics.Opts{Name: "gslb_rtt_ewma_milliseconds", Help: "Passively learned round-trip estimate per (population stream, region).", Source: "internal/gslb", Labels: []string{"stream", "region"}})
		}
	}
	if m.plane != nil {
		mm.gsDivergence = reg.Gauge(metrics.Opts{Name: "gossip_convergence_max_divergence", Help: "Maximum probe generations any replica's view lags the region owner's.", Source: "internal/gossip"})
		mm.gsRounds = reg.Counter(metrics.Opts{Name: "gossip_rounds_total", Help: "Completed gossip rounds.", Source: "internal/gossip"})
		mm.gsSent = reg.Counter(metrics.Opts{Name: "gossip_messages_sent_total", Help: "Gossip messages sent between replicas.", Source: "internal/gossip"})
		mm.gsDelivered = reg.Counter(metrics.Opts{Name: "gossip_messages_delivered_total", Help: "Gossip messages delivered.", Source: "internal/gossip"})
		mm.gsDropped = reg.Counter(metrics.Opts{Name: "gossip_messages_dropped_total", Help: "Gossip messages lost to link loss or partitions.", Source: "internal/gossip"})
	}
	m.mm = mm
}

// MetricsRegistry returns the deployment's instrument registry — the object
// an HTTP /metrics handler scrapes.
func (m *Manager) MetricsRegistry() *metrics.Registry { return m.mm.reg }

// publishMetrics writes the era's already-merged state into the registry.
// met is the merged workload view controlEra computed.
func (m *Manager) publishMetrics(met *workload.Metrics, smoothed, fractions []float64, lambda, respMean float64) {
	mm := m.mm
	for i, name := range m.regionNames {
		mm.rmttf.Set(smoothed[i], name)
		mm.fraction.Set(fractions[i], name)
		mm.activeVMs.Set(float64(m.vmcs[name].ActiveVMs()), name)
	}
	mm.respTime.Set(respMean)
	mm.lambda.Set(lambda)
	mm.crossRegion.Set(m.plan.CrossRegionFraction())
	mm.eras.Set(float64(m.eras))
	mm.controlMsgs.Set(float64(m.controlMessages))
	mm.localReqs.Set(float64(m.LocalRequests()))
	mm.forwarded.Set(float64(m.ForwardedRequests()))

	for _, stream := range met.Regions() {
		mm.wlIssued.Set(float64(met.Issued(stream)), stream)
		mm.wlCompleted.Set(float64(met.Completed(stream)), stream)
		mm.wlDropped.Set(float64(met.Dropped(stream)), stream)
		mm.wlTimeouts.Set(float64(met.Timeouts(stream)), stream)
		mm.wlSLAMiss.Set(float64(met.SLAViolations(stream)), stream)
	}
	hist := met.ResponseHistogram()
	mm.respHist.SetCumulative(hist.Counts(), hist.Sum(), hist.Count())
	// Link the span layer into the exposition: each bucket carries the trace
	// ID of its deterministically picked exemplar (latest completion wins, so
	// the pick is merge-order independent).  With tracing off no exemplar is
	// ever valid and the exposition bytes are exactly the pre-tracing ones.
	for i, ex := range met.ResponseExemplars() {
		if ex.Valid {
			mm.respHist.SetExemplar(i, fmt.Sprintf("%016x", ex.TraceID), ex.Value, ex.At.Seconds())
		}
	}

	for i, r := range m.regions {
		rs := r.Stats()
		name := m.regionNames[i]
		mm.csServed.Set(float64(rs.Served), name)
		mm.csDropped.Set(float64(rs.Dropped), name)
		mm.csCrashes.Set(float64(rs.Crashes), name)
		vs := m.vmcs[name].Stats()
		mm.pcamProactive.Set(float64(vs.ProactiveRejuvenations), name)
		mm.pcamReactive.Set(float64(vs.ReactiveRecoveries), name)
	}

	if mm.gslbHealth != nil {
		// The health plane's view: the gossip owners' states when replicated,
		// the central director's otherwise.
		var states []gslb.HealthState
		if m.plane != nil {
			states = m.plane.OwnerStates()
		} else {
			states = m.director.States()
		}
		routed := m.GSLBRouted()
		for i, name := range m.regionNames {
			mm.gslbHealth.Set(float64(states[i]), name)
			mm.gslbRouted.Set(float64(routed[name]), name)
		}
	}
	if mm.gslbProbes != nil {
		mm.gslbProbes.Set(float64(m.director.Probes()))
	}
	if mm.rttEwma != nil {
		for s, sname := range m.director.Streams() {
			for r, rname := range m.regionNames {
				mm.rttEwma.Set(m.director.LatencyEstimateMs(s, r), sname, rname)
			}
		}
	}
	if mm.gsDivergence != nil {
		gs := m.plane.Stats()
		mm.gsDivergence.Set(float64(gs.MaxDivergence))
		mm.gsRounds.Set(float64(gs.Rounds))
		mm.gsSent.Set(float64(gs.Sent))
		mm.gsDelivered.Set(float64(gs.Delivered))
		mm.gsDropped.Set(float64(gs.Dropped))
	}
}

// seriesSamples maps every recorded series set to the instrument family it is
// sampled from, in the recorder's set order.  A sample's series is named by
// its label values joined with ":" ("us-east:eu-west" for a per-lane RTT), or
// by the row's fixed name when the family has no labels.  Families the
// deployment does not register (GSLB, gossip, RTT) visit nothing, so their
// sets are absent exactly where the plane is absent.
var seriesSamples = []struct{ set, family, series string }{
	{"rmttf", "acm_rmttf_seconds", ""},
	{"fraction", "acm_workload_fraction", ""},
	{"active_vms", "acm_active_vms", ""},
	{"response_time", "acm_interval_response_time_seconds", "all_clients"},
	{"lambda", "acm_lambda_requests_per_second", "global"},
	{"cross_region", "acm_cross_region_fraction", "fraction"},
	{"gslb_health", "gslb_region_health", ""},
	{"gslb_routed", "gslb_routed_requests_total", ""},
	{"gossip_convergence", "gossip_convergence_max_divergence", "max_divergence"},
	{"gslb_rtt", "gslb_rtt_ewma_milliseconds", ""},
}

// sampleSeries appends the era's samples to the recorder at time now
// (seconds).  Samples come out in first-set order, which publishMetrics fixes
// by setting children region-major (and stream x region for the RTT
// matrix), so the series order inside every set is deterministic.
func (m *Manager) sampleSeries(now float64) {
	for _, row := range seriesSamples {
		m.mm.reg.Each(row.family, func(labels []string, v float64) {
			name := row.series
			if len(labels) > 0 {
				name = strings.Join(labels, ":")
			}
			m.recorder.Record(row.set, name, now, v)
		})
	}
}
