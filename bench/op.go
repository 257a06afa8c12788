package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/acm"
	"repro/internal/backend"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/tracing"
)

// traceFraction is the request-sampling fraction of a traced op.
const traceFraction = 0.01

// setupReps is how often an op builds each backend; the median build time
// counts as the run's set-up time and the last backend is the one run.  One
// build varies by ±30% within a process; the median keeps a slow build out.
const setupReps = 7

// runSummary is the observable outcome of one scenario run: the golden
// fields plus the client counters the op checks.
type runSummary struct {
	Scenario, Policy string
	Eras             uint64
	SeriesSHA256     string
	SuccessRatio     float64
	MeanResponseTime float64
	Issued           uint64
	Completed        uint64
	Dropped          uint64
	Timeouts         uint64
	Samples          uint64
	SLAViolations    uint64
	EffectiveClients int
	RMTTFSpread      float64
}

// opResult is what one op (one child process) reports.  SetupS, RunS and
// CPUS are raw host times.
type opResult struct {
	Runs       []runSummary
	SetupS     float64
	RunS       float64
	CPUS       float64
	AllocBytes uint64
	// Claims holds the Section VI-B claims of each figure (paper-figures
	// only), keyed by scenario.
	Claims map[string]experiment.Claims `json:",omitempty"`
	// Counts is set on traced ops.
	Counts *traceCounts `json:",omitempty"`

	// PeakRSSMB is the child's maximum resident set, filled by the parent.
	PeakRSSMB float64
}

// traceCounts are the deterministic work counts of a traced op, summed over
// its runs, plus the simulated waits read from the sampled traces.
type traceCounts struct {
	Events, Epochs, Posts uint64
	// BusyRatio is the mean sim-time utilization of the shard lanes (zero on
	// the serial engine, which has no flight recorder).
	BusyRatio float64
	// QueueDepth is the mean number of events pending per engine lane at the
	// end of a run — the heap depth the event probe holds.
	QueueDepth float64
	// MailboxDelayMs is the mean simulated gap between a sampled request's
	// mailbox.post event and its next event.
	MailboxDelayMs float64
	// BrowserTraces and BatchTraces count the sampled individual requests and
	// cohort batches; divided by traceFraction they estimate the requests
	// submitted to the VM controllers.
	BrowserTraces, BatchTraces uint64
	QueueShare                 float64
	Ticks                      uint64
	Issued                     uint64
	Routes, Probes             uint64
	Eras                       uint64
	Points                     uint64
	// Children counts the registry children; Publishes the child updates
	// (children × eras), one per child at every control era.
	Children, Publishes uint64
	// ScrapeNs is the median host time of one Registry.WriteText of a
	// finished run's registry.
	ScrapeNs float64
}

// requests estimates the requests (individual or batch) submitted to the VM
// controllers.
func (c *traceCounts) requests() float64 {
	return float64(c.BrowserTraces+c.BatchTraces) / traceFraction
}

// epochal reports whether the scenario runs on the sharded event loop, the
// only engine with a flight recorder.
func epochal(sc experiment.Scenario) bool { return sc.EventWorkers >= 1 || sc.GSLB.Enabled() }

// buildScenario builds a run's scenario as the benchmark runs it.
func buildScenario(r scenarioRun, seed uint64, horizon simclock.Duration, traced bool) (experiment.Scenario, error) {
	sc, err := experiment.BuildScenario(r.scenario, seed)
	if err != nil {
		return sc, err
	}
	sc.Horizon = horizon
	// The determinism contract guarantees identical output for any number of
	// event workers >= 1; more goroutines than CPUs only add scheduling noise.
	sc.EventWorkers = min(sc.EventWorkers, runtime.NumCPU())
	if traced {
		sc.TraceSampleFraction = traceFraction
		sc.FlightRecorder = epochal(sc)
	}
	return sc, nil
}

// runOp runs every scenario of the workload once and measures set-up, run
// time and allocation.  A traced op samples requests and records the flight
// recorder and fills Counts.
func runOp(w workload, seed uint64, horizon simclock.Duration, traced bool) (*opResult, error) {
	res := &opResult{}
	figures := map[string]map[string]*experiment.Result{}
	var counts traceCounts
	var traces []*tracing.RequestTrace
	var busy []float64
	var depth []float64
	var scrapes []float64
	for _, r := range w.runs {
		np, err := experiment.PolicyByKey(r.policy)
		if err != nil {
			return nil, err
		}
		var sc experiment.Scenario
		var b backend.Backend
		setups := make([]float64, setupReps)
		for i := range setups {
			t0 := time.Now()
			if sc, err = buildScenario(r, seed, horizon, traced); err != nil {
				return nil, err
			}
			if b, err = experiment.NewBackend(sc, np); err != nil {
				return nil, err
			}
			setups[i] = time.Since(t0).Seconds()
		}
		res.SetupS += median(setups)

		// Collect the discarded backends now, not during the timed run.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuSeconds()
		t0 := time.Now()
		if err := b.Run(sc.Horizon); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", r.scenario, r.policy, err)
		}
		res.RunS += time.Since(t0).Seconds()
		res.CPUS += cpuSeconds() - cpu0
		runtime.ReadMemStats(&m1)
		res.AllocBytes += m1.TotalAlloc - m0.TotalAlloc

		sum, result, err := summarizeRun(sc, r, b)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, sum)
		if w.paperFigures() {
			if figures[r.scenario] == nil {
				figures[r.scenario] = map[string]*experiment.Result{}
			}
			figures[r.scenario][r.policy] = result
		}
		if traced {
			sim, ok := b.(*backend.Simulated)
			if !ok {
				return nil, fmt.Errorf("%s: traced op needs the simulator backend", r.scenario)
			}
			counts.addRun(sim)
			traces = append(traces, sim.Manager().Tracer().Traces()...)
			busy = append(busy, busyRatio(sim.Manager().FlightRecorder()))
			depth = append(depth, queueDepth(sim.Manager()))
			scrapes = append(scrapes, scrapeNs(sim.Registry()))
		}
	}
	if w.paperFigures() {
		res.Claims = map[string]experiment.Claims{}
		for fig, results := range figures {
			res.Claims[fig] = experiment.EvaluateClaims(results)
		}
	}
	if traced {
		counts.addTraces(traces)
		counts.BusyRatio = mean(busy)
		counts.QueueDepth = mean(depth)
		counts.ScrapeNs = median(scrapes)
		res.Counts = &counts
	}
	return res, nil
}

// cpuSeconds is the user+system CPU time of this process, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// summarizeRun extracts the golden fields and client counters of a finished
// run, plus the partial experiment.Result the claims evaluation reads.
func summarizeRun(sc experiment.Scenario, r scenarioRun, b backend.Backend) (runSummary, *experiment.Result, error) {
	var csv bytes.Buffer
	if err := b.Recorder().WriteAllCSV(&csv); err != nil {
		return runSummary{}, nil, fmt.Errorf("%s: serialising recorder: %w", r.scenario, err)
	}
	sha := sha256.Sum256(csv.Bytes())
	met := b.Metrics()
	conv := b.Recorder().Set("rmttf").Analyze(sc.TailFraction, sc.ConvergenceTolerance)
	sum := runSummary{
		Scenario:         r.scenario,
		Policy:           r.policy,
		Eras:             b.Results().Eras,
		SeriesSHA256:     hex.EncodeToString(sha[:]),
		SuccessRatio:     met.SuccessRatio(""),
		MeanResponseTime: met.MeanResponseTime(""),
		Issued:           met.Issued(""),
		Completed:        met.Completed(""),
		Dropped:          met.Dropped(""),
		Timeouts:         met.Timeouts(""),
		Samples:          met.ResponseSamples(""),
		SLAViolations:    met.SLAViolations(""),
		EffectiveClients: sc.EffectiveClients(),
		RMTTFSpread:      conv.RelativeSpread,
	}
	return sum, &experiment.Result{RMTTFConvergence: conv, MeanResponseTime: sum.MeanResponseTime}, nil
}

// addRun folds one finished traced run's engine, controller, director,
// recorder and registry counts into c.
func (c *traceCounts) addRun(sim *backend.Simulated) {
	m := sim.Manager()
	if fr := m.FlightRecorder(); fr != nil {
		c.Epochs += fr.EpochCount()
		for _, lane := range fr.Utilization() {
			c.Events += lane.Fired
			c.Posts += lane.Drained
		}
	} else {
		c.Events += m.Engine().Fired()
	}
	final := sim.Results()
	c.Eras += final.Eras
	for _, s := range final.VMCStats {
		c.Ticks += s.ControlTicks
	}
	if g := final.GSLB; g != nil {
		c.Probes += g.Probes
		for _, n := range g.Routed {
			c.Routes += n
		}
	}
	c.Issued += sim.Metrics().Issued("")
	rec := sim.Recorder()
	for _, set := range rec.SetNames() {
		for _, s := range rec.Set(set).Series {
			c.Points += uint64(s.Len())
		}
	}
	children := registryChildren(sim.Registry())
	c.Children += children
	c.Publishes += final.Eras * children
}

// addTraces reads the request mix, the mailbox waits and the queue share from
// the sampled traces of every run.
func (c *traceCounts) addTraces(traces []*tracing.RequestTrace) {
	var gaps []float64
	for _, rt := range traces {
		if rt.Weight > 1 {
			c.BatchTraces++
		} else {
			c.BrowserTraces++
		}
		for i, ev := range rt.Events {
			if ev.Name != tracing.EventMailbox {
				continue
			}
			next := rt.End
			if i+1 < len(rt.Events) {
				next = rt.Events[i+1].At
			}
			gaps = append(gaps, 1000*next.Sub(ev.At).Seconds())
		}
	}
	c.MailboxDelayMs = mean(gaps)
	for _, ps := range tracing.Breakdown(traces) {
		if ps.Name == tracing.SpanQueue {
			c.QueueShare = ps.Share
		}
	}
}

// busyRatio is the mean sim-time utilization of the shard lanes (the last
// lane is the control timeline), zero without a flight recorder.
func busyRatio(fr *simclock.FlightRecorder) float64 {
	if fr == nil {
		return 0
	}
	u := fr.Utilization()
	var ratios []float64
	for _, lane := range u[:len(u)-1] {
		ratios = append(ratios, lane.Utilization())
	}
	return mean(ratios)
}

// queueDepth is the mean number of pending events per engine lane at the end
// of a traced run.
func queueDepth(m *acm.Manager) float64 {
	if m.FlightRecorder() == nil { // traced epochal runs always record
		return float64(m.Engine().Pending())
	}
	var depths []float64
	for _, r := range m.Regions() {
		for s := 0; s < r.NumShards(); s++ {
			depths = append(depths, float64(r.ShardEngine(s).Pending()))
		}
	}
	return mean(depths)
}

// registryChildren counts the labelled children of a registry from its text
// exposition: one per counter or gauge sample, one per histogram (its
// _count line).
func registryChildren(reg *metrics.Registry) uint64 {
	histograms := map[string]bool{}
	for _, d := range reg.Describe() {
		if d.Kind == metrics.KindHistogram {
			histograms[d.Name] = true
		}
	}
	var n uint64
	sc := bufio.NewScanner(strings.NewReader(reg.Text()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if base, ok := strings.CutSuffix(name, "_count"); ok && histograms[base] {
			n++
		} else if !histograms[strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum")] {
			n++
		}
	}
	return n
}

// scrapeNs times Registry.WriteText on a finished run's registry.
func scrapeNs(reg *metrics.Registry) float64 {
	times := make([]float64, 5)
	for i := range times {
		t0 := time.Now()
		_ = reg.WriteText(io.Discard) // io.Discard never fails
		times[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(times)
}
