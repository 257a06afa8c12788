package main

import (
	"fmt"
	"math"
	"strings"
)

// opMetric is one end-to-end metric, read from a timed op; scale converts
// the op's raw host seconds to reference-machine seconds (calib.go).
type opMetric struct {
	name, unit string
	value      func(op *opResult, scale float64) float64
}

// endToEndMetrics lists the end-to-end metrics in report order; BENCHMARK.json
// lists the same names and units with their bounds.
var endToEndMetrics = []opMetric{
	{"setup_s", "s", func(op *opResult, scale float64) float64 { return op.SetupS * scale }},
	{"run_s", "s", func(op *opResult, scale float64) float64 { return op.RunS * scale }},
	{"req_per_s", "1/s", func(op *opResult, scale float64) float64 { return float64(op.total().Completed) / (op.RunS * scale) }},
	{"cpu_s", "s", func(op *opResult, scale float64) float64 { return op.CPUS * scale }},
	{"peak_rss_mb", "MB", func(op *opResult, _ float64) float64 { return op.PeakRSSMB }},
	{"alloc_mb", "MB", func(op *opResult, _ float64) float64 { return float64(op.AllocBytes) / 1e6 }},
}

// total sums the client counters over the op's runs.
func (op *opResult) total() runSummary {
	var t runSummary
	for _, r := range op.Runs {
		t.Issued += r.Issued
		t.Completed += r.Completed
		t.Samples += r.Samples
		t.SLAViolations += r.SLAViolations
		t.MeanResponseTime += r.MeanResponseTime * float64(r.Samples)
	}
	if t.Samples > 0 {
		t.MeanResponseTime /= float64(t.Samples)
	}
	return t
}

// layerInput is everything the per-layer metrics are computed from: the
// traced op's counts, the probes' unit costs, the raw host run time of the
// untraced ops and the tracing overhead.
type layerInput struct {
	op       *opResult // a traced op
	c        *traceCounts
	p        probeCosts
	runS     float64 // median raw run time of the untraced ops
	overhead float64 // traced over untraced run time, minus one
}

// attributedS is the ledger: every traced count times its layer's self cost.
func (l layerInput) attributedS() float64 {
	c, p := l.c, l.p
	ns := float64(c.Events)*p.EventNs +
		float64(c.Epochs)*p.BarrierNs +
		float64(c.Posts)*p.PostNs +
		c.requests()*p.SubmitNs +
		float64(c.Ticks)*p.TickNs +
		float64(c.BrowserTraces)/traceFraction*p.BrowserNs +
		float64(c.BatchTraces)/traceFraction*p.CohortNs +
		float64(c.Routes)*p.RouteNs +
		float64(c.Probes)*p.GSLBTickNs +
		float64(c.Eras)*p.StepNs +
		float64(c.Points)*p.RecordNs +
		float64(c.Publishes)*p.PublishNs
	return ns / 1e9
}

// layerMetric is one per-layer metric.
type layerMetric struct {
	name, unit string
	value      func(l layerInput) float64
}

// perLayerMetrics lists the per-layer metrics in report order; BENCHMARK.json
// lists the same names and units.  Counts and simulated quantities are
// deterministic for a seed; the _ns, _B and share metrics are host
// measurements.
var perLayerMetrics = []layerMetric{
	{"simclock.events", "count", func(l layerInput) float64 { return float64(l.c.Events) }},
	{"simclock.event_ns", "ns", func(l layerInput) float64 { return l.p.EventNs }},
	{"simclock.epochs", "count", func(l layerInput) float64 { return float64(l.c.Epochs) }},
	{"simclock.barrier_ns", "ns", func(l layerInput) float64 { return l.p.BarrierNs }},
	{"simclock.posts", "count", func(l layerInput) float64 { return float64(l.c.Posts) }},
	{"simclock.post_ns", "ns", func(l layerInput) float64 { return l.p.PostNs }},
	{"simclock.mailbox_delay_ms", "sim_ms", func(l layerInput) float64 { return l.c.MailboxDelayMs }},
	{"simclock.busy_ratio", "ratio", func(l layerInput) float64 { return l.c.BusyRatio }},
	{"pcam.requests", "count", func(l layerInput) float64 { return l.c.requests() }},
	{"pcam.submit_ns", "ns", func(l layerInput) float64 { return l.p.SubmitNs }},
	{"pcam.submit_B", "B", func(l layerInput) float64 { return l.p.SubmitB }},
	{"pcam.ticks", "count", func(l layerInput) float64 { return float64(l.c.Ticks) }},
	{"pcam.tick_ns", "ns", func(l layerInput) float64 { return l.p.TickNs }},
	{"cloudsim.queue_share", "ratio", func(l layerInput) float64 { return l.c.QueueShare }},
	{"workload.clients_per_request", "clients/req", func(l layerInput) float64 { return float64(l.c.Issued) / l.c.requests() }},
	{"workload.browser_ns", "ns", func(l layerInput) float64 { return l.p.BrowserNs }},
	{"workload.browser_B", "B", func(l layerInput) float64 { return l.p.BrowserB }},
	{"workload.cohort_ns", "ns", func(l layerInput) float64 { return l.p.CohortNs }},
	{"workload.success_ratio", "ratio", func(l layerInput) float64 {
		t := l.op.total()
		return float64(t.Completed) / float64(t.Issued)
	}},
	{"workload.mean_rt_ms", "sim_ms", func(l layerInput) float64 { return 1000 * l.op.total().MeanResponseTime }},
	{"workload.sla_violation_ratio", "ratio", func(l layerInput) float64 {
		t := l.op.total()
		return float64(t.SLAViolations) / float64(t.Samples)
	}},
	{"gslb.routes", "count", func(l layerInput) float64 { return float64(l.c.Routes) }},
	{"gslb.route_ns", "ns", func(l layerInput) float64 { return l.p.RouteNs }},
	{"gslb.probes", "count", func(l layerInput) float64 { return float64(l.c.Probes) }},
	{"gslb.tick_ns", "ns", func(l layerInput) float64 { return l.p.GSLBTickNs }},
	{"acm.eras", "count", func(l layerInput) float64 { return float64(l.c.Eras) }},
	{"acm.rmttf_spread", "ratio", func(l layerInput) float64 { return l.op.rmttfSpread() }},
	{"core.step_ns", "ns", func(l layerInput) float64 { return l.p.StepNs }},
	{"trace.points", "count", func(l layerInput) float64 { return float64(l.c.Points) }},
	{"trace.record_ns", "ns", func(l layerInput) float64 { return l.p.RecordNs }},
	{"metrics.children", "count", func(l layerInput) float64 { return float64(l.c.Children) }},
	{"metrics.publish_ns", "ns", func(l layerInput) float64 { return l.p.PublishNs }},
	{"metrics.scrape_ns", "ns", func(l layerInput) float64 { return l.c.ScrapeNs }},
	{"tracing.span_ns", "ns", func(l layerInput) float64 { return l.p.SpanNs }},
	{"tracing.overhead_share", "ratio", func(l layerInput) float64 { return l.overhead }},
	{"ledger.run_s", "s", func(l layerInput) float64 { return l.runS }},
	{"ledger.attributed_s", "s", func(l layerInput) float64 { return l.attributedS() }},
	{"ledger.gap_share", "ratio", func(l layerInput) float64 { return 1 - l.attributedS()/l.runS }},
}

// rmttfSpread is the largest policy-2 relative RMTTF spread over the op's
// runs (zero when no run uses policy 2).
func (op *opResult) rmttfSpread() float64 {
	spread := 0.0
	for _, r := range op.Runs {
		if r.Policy == "policy2" {
			spread = math.Max(spread, r.RMTTFSpread)
		}
	}
	return spread
}

// checkOp applies the per-op correctness checks: request conservation in
// every run and, for the paper's figures, the Section VI-B claims.  At the
// golden seed every claim must hold; at other seeds only the ones that hold
// for any seed (policy 1 diverges, policy 2 converges, every policy meets
// the SLA) — which of policies 2 and 3 converges faster and tighter varies
// with the seed.
func checkOp(w workload, op *opResult, everyClaim bool) error {
	var problems []string
	for _, r := range op.Runs {
		inFlight := int64(r.Issued) - int64(r.Completed+r.Dropped+r.Timeouts)
		if inFlight < 0 || inFlight > int64(r.EffectiveClients) {
			problems = append(problems, fmt.Sprintf("%s/%s: %d requests in flight for %d clients (issued %d, completed %d, dropped %d, timed out %d)",
				r.Scenario, r.Policy, inFlight, r.EffectiveClients, r.Issued, r.Completed, r.Dropped, r.Timeouts))
		}
	}
	if w.paperFigures() {
		if len(op.Claims) != 2 {
			problems = append(problems, fmt.Sprintf("claims evaluated for %d figures, want 2", len(op.Claims)))
		}
		for fig, c := range op.Claims {
			hold := c.Policy1DoesNotConverge && c.Policy2Converges && c.AllPoliciesMeetSLA
			if everyClaim {
				hold = c.AllHold()
			}
			if !hold {
				problems = append(problems, fmt.Sprintf("%s claims do not hold:\n%s", fig, c))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// fingerprint joins the series hashes of an op's runs; every op of one seed
// must produce the same one.
func (op *opResult) fingerprint() string {
	shas := make([]string, len(op.Runs))
	for i, r := range op.Runs {
		shas[i] = r.SeriesSHA256
	}
	return strings.Join(shas, ",")
}
