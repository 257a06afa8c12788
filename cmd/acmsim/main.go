// Command acmsim runs one ACM deployment described by command-line flags:
// which paper regions to use, how many clients connect to each, which
// load-balancing policy the leader runs, and for how long.  It prints the
// per-region state over time, the client-side metrics and the dependability
// counters, and can dump the raw series as CSV for external plotting.
//
// Examples:
//
//	acmsim -regions 1,3 -clients 320,128 -policy policy2 -hours 2
//	acmsim -regions 1,2,3 -clients 288,96,256 -policy policy1 -predictor ml
//	acmsim -regions 1,3 -clients 200,200 -policy uniform -csv run.csv
//	acmsim -scenario figure4 -policy policy2       # run a registered scenario
//	acmsim -scenario global-failover -gslb-policy leastload   # swap the GSLB policy
//	acmsim -scenario global-gossip -metrics-addr :9090   # live /metrics endpoint
//	acmsim -list-scenarios                         # list the registry
//	acmsim -list-scenarios -markdown               # emit docs/SCENARIOS.md
//	acmsim -list-metrics                           # emit docs/METRICS.md
//	acmsim -list-tracing                           # emit docs/TRACING.md
//	acmsim -scenario global-traced -trace-out run.json   # Perfetto-loadable trace
//	acmsim -dump-config scenario.json      # write the assembled scenario
//	acmsim -config scenario.json           # run a scenario from a JSON file
//	acmsim -scenarios figure3,figure4 -betas 0.25,0.75 -reps 10 \
//	       -sweep-csv sweep.csv -journal sweep.journal    # matrix sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/acm"
	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/cloudsim"
	"repro/internal/experiment"
	"repro/internal/gslb"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/tracing"
	"repro/internal/workload"
)

func main() {
	var (
		regions     = flag.String("regions", "1,3", "comma-separated paper regions to deploy (1, 2, 3)")
		clients     = flag.String("clients", "320,128", "comma-separated client counts, one per region")
		cohorts     = flag.String("cohort-clients", "", "comma-separated cohort-compressed client counts, one per region (10^6-scale populations batched per tick; empty = none)")
		tracerFr    = flag.Float64("tracer-fraction", -1, "fraction of every cohort simulated as individual browsers feeding the latency series, in [0, 1] (-1 keeps each scenario's own setting; default 1%)")
		policy      = flag.String("policy", "policy2", "load-balancing policy: policy1, policy2, policy3, uniform")
		predictor   = flag.String("predictor", "oracle", "RTTF predictor: oracle or ml")
		hours       = flag.Float64("hours", 2, "simulated hours")
		seed        = flag.Uint64("seed", 1, "deterministic simulation seed")
		beta        = flag.Float64("beta", 0.5, "RMTTF smoothing factor of equation (1)")
		interval    = flag.Float64("interval", 60, "control loop interval in seconds")
		shards      = flag.Int("shards", 0, "split every region's VM pool across this many engine shards (0 keeps each scenario's own setting)")
		eventWork   = flag.Int("event-workers", -1, "run the sharded event loop's shard loops on at most this many goroutines; each epoch runs inline or on them, whichever measures cheaper (0 is the inline one-worker run, like 1; byte-identical across all values; -1 keeps each scenario's own setting)")
		gslbPol     = flag.String("gslb-policy", "", "global-traffic-director routing policy: static, rr, leastload, failover or latency (overrides the scenario's own setting; GSLB deployments always run on the event loop)")
		rttSpec     = flag.String("rtt", "", "per-stream round-trip matrix for latency-aware routing, milliseconds per deployed region: \"global=60,120;americas=80,140\" (overrides the scenario's own RTT rows)")
		mix         = flag.String("mix", "browsing", "TPC-W mix: browsing, shopping or ordering")
		csvPath     = flag.String("csv", "", "write all recorded series to this CSV file")
		traceOut    = flag.String("trace-out", "", "write the sampled request traces and the engine flight recorder as Chrome trace-event JSON to this file (load in ui.perfetto.dev or chrome://tracing; requires tracing enabled)")
		traceSample = flag.Float64("trace-sample", -1, "sample this fraction of requests into the span layer, in [0, 1] (-1 keeps each scenario's own setting; the sample is a pure function of the seed, so results are byte-identical with tracing on or off)")
		metricsAddr = flag.String("metrics-addr", "", "serve the live instrument registry in Prometheus text format at /metrics on this address (e.g. :9090) while the run executes")
		config      = flag.String("config", "", "run the scenario described by this JSON file instead of the region/client flags")
		scenario    = flag.String("scenario", "", "run a registered scenario by name instead of the region/client flags (see -list-scenarios)")
		list        = flag.Bool("list-scenarios", false, "list the registered scenarios and exit")
		markdown    = flag.Bool("markdown", false, "with -list-scenarios: print the full scenario catalogue as markdown (the source of docs/SCENARIOS.md; see `make docs`)")
		listMetrics = flag.Bool("list-metrics", false, "print the instrument catalogue as markdown (the source of docs/METRICS.md; see `make docs`) and exit")
		listTracing = flag.Bool("list-tracing", false, "print the tracing guide as markdown (the source of docs/TRACING.md; see `make docs`) and exit")
		dumpPath    = flag.String("dump-config", "", "write the assembled scenario as JSON to this file and exit")
	)
	// Matrix-sweep mode (experiment.Matrix): mutually exclusive with the
	// single-run flags above.  The flag set is shared with cmd/figures.
	sweep := cli.RegisterSweepFlags(flag.CommandLine, 0, "parallel sweep workers (GOMAXPROCS when 0)")
	flag.Parse()

	if *list {
		if *markdown {
			md, err := experiment.ScenariosMarkdown()
			if err != nil {
				fmt.Fprintln(os.Stderr, "acmsim:", err)
				os.Exit(1)
			}
			fmt.Print(md)
			return
		}
		names := experiment.ScenarioNames()
		width := 0
		for _, name := range names {
			if len(name) > width {
				width = len(name)
			}
		}
		for _, name := range names {
			fmt.Printf("%-*s  %s\n", width, name, experiment.ScenarioDescription(name))
		}
		return
	}
	if *listMetrics {
		md, err := experiment.MetricsMarkdown()
		if err != nil {
			fmt.Fprintln(os.Stderr, "acmsim:", err)
			os.Exit(1)
		}
		fmt.Print(md)
		return
	}
	if *listTracing {
		fmt.Print(experiment.TracingMarkdown())
		return
	}

	// Track which flags the user actually set, so a registered scenario keeps
	// its own horizon/beta/interval/predictor unless explicitly overridden.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *markdown {
		fmt.Fprintln(os.Stderr, "acmsim: -markdown only applies with -list-scenarios")
		os.Exit(1)
	}

	if sweep.Active() {
		// The sweep defines its own deployments and output; a single-run
		// flag alongside -scenarios would be silently ignored, so reject it.
		for _, f := range []string{"scenario", "config", "dump-config", "regions", "clients", "mix",
			"cohort-clients", "tracer-fraction",
			"policy", "predictor", "beta", "interval", "shards", "event-workers",
			"gslb-policy", "rtt", "csv", "metrics-addr", "trace-out", "trace-sample"} {
			if explicit[f] {
				fmt.Fprintf(os.Stderr, "acmsim: -%s does not apply to sweeps (-scenarios); see -policies/-betas/-sweep-csv\n", f)
				os.Exit(1)
			}
		}
		if err := runMatrix(sweep, *seed, *hours, explicit); err != nil {
			fmt.Fprintln(os.Stderr, "acmsim:", err)
			os.Exit(1)
		}
		return
	}
	for _, f := range cli.SweepOnlyFlagNames(true) {
		if explicit[f] {
			fmt.Fprintf(os.Stderr, "acmsim: -%s only applies to sweeps; pass -scenarios to run one\n", f)
			os.Exit(1)
		}
	}

	if err := run(*regions, *clients, *cohorts, *tracerFr, *policy, *predictor, *mix, *hours, *seed, *beta, *interval, *shards, *eventWork, *gslbPol, *rttSpec, *csvPath, *metricsAddr, *traceOut, *traceSample, *config, *scenario, *dumpPath, explicit); err != nil {
		fmt.Fprintln(os.Stderr, "acmsim:", err)
		os.Exit(1)
	}
}

// runMatrix expands and executes a sweep on the shared pipeline
// (experiment.RunSweep), printing the summary table and optionally writing
// CSV/JSON rows, with journal-based checkpoint/resume.
func runMatrix(sweep *cli.SweepFlags, seed uint64, hours float64, explicit map[string]bool) error {
	m, err := sweep.Matrix(seed)
	if err != nil {
		return err
	}
	if explicit["hours"] {
		if err := cli.RequirePositive("hours", hours); err != nil {
			return err
		}
		m.Horizon = simclock.Duration(hours) * simclock.Hour
	}
	fmt.Printf("sweep: %d jobs (%d scenarios x policies x betas x %d reps)\n", m.Size(), len(m.Scenarios), max(*sweep.Reps, 1))
	return experiment.RunSweepAndEmit(context.Background(), m, sweep.Options(), *sweep.Journal, *sweep.CSV, *sweep.JSON, os.Stdout)
}

func run(regionSpec, clientSpec, cohortSpec string, tracerFraction float64, policyKey, predictor, mixName string, hours float64, seed uint64, beta, intervalS float64, shards, eventWorkers int, gslbPolicy, rttSpec, csvPath, metricsAddr, traceOut string, traceSample float64, configPath, scenarioName, dumpPath string, explicit map[string]bool) error {
	if err := cli.RequirePositive("hours", hours); err != nil {
		return err
	}
	if err := cli.RequirePositive("interval", intervalS); err != nil {
		return err
	}
	np, err := experiment.PolicyByKey(policyKey)
	if err != nil {
		return err
	}

	var mode acm.PredictorMode
	switch predictor {
	case "oracle":
		mode = acm.PredictorOracle
	case "ml":
		mode = acm.PredictorML
	default:
		return fmt.Errorf("unknown predictor %q (use oracle or ml)", predictor)
	}

	if configPath != "" && scenarioName != "" {
		return fmt.Errorf("-config and -scenario are mutually exclusive")
	}

	// Tuning flags the user explicitly set override a loaded or registered
	// scenario; unset flags keep the scenario's own values (e.g. the
	// elasticity scenario's 90-minute horizon).
	applyTuningFlags := func(sc *experiment.Scenario) error {
		if explicit["seed"] {
			sc.Seed = seed
		}
		if explicit["hours"] {
			sc.Horizon = simclock.Duration(hours) * simclock.Hour
		}
		if explicit["interval"] {
			sc.ControlInterval = simclock.Duration(intervalS)
		}
		if explicit["beta"] {
			if err := experiment.ValidateBeta(beta); err != nil {
				return err
			}
			sc.Beta = beta
		}
		if explicit["predictor"] {
			sc.Predictor = mode
		}
		return nil
	}
	// Deployment-shape flags conflict with a complete scenario; reject them
	// instead of silently simulating a different deployment.
	rejectShapeFlags := func(source string) error {
		for _, conflicting := range []string{"regions", "clients", "cohort-clients", "mix"} {
			if explicit[conflicting] {
				return fmt.Errorf("-%s conflicts with %s (the scenario defines the deployment)", conflicting, source)
			}
		}
		return nil
	}

	var scenario experiment.Scenario
	switch {
	case configPath != "":
		if err := rejectShapeFlags("-config " + configPath); err != nil {
			return err
		}
		scenario, err = experiment.LoadScenarioFile(configPath)
		if err != nil {
			return err
		}
		if err := applyTuningFlags(&scenario); err != nil {
			return err
		}
	case scenarioName != "":
		if err := rejectShapeFlags("-scenario " + scenarioName); err != nil {
			return err
		}
		scenario, err = experiment.BuildScenario(scenarioName, seed)
		if err != nil {
			return err
		}
		if err := applyTuningFlags(&scenario); err != nil {
			return err
		}
	default:
		if err := experiment.ValidateBeta(beta); err != nil {
			return err
		}
		setups, err := parseRegions(regionSpec, clientSpec, cohortSpec, mixName)
		if err != nil {
			return err
		}
		scenario = experiment.Scenario{
			Name:    "acmsim",
			Horizon: simclock.Duration(hours) * simclock.Hour,
			Config: acm.Config{
				Seed:            seed,
				Regions:         setups,
				ControlInterval: simclock.Duration(intervalS),
				Beta:            beta,
				Predictor:       mode,
			},
		}
	}
	// -trace-sample overrides the span layer's sampling fraction the same way
	// -tracer-fraction overrides cohort tracers: -1 (the default) keeps the
	// scenario's own setting, anything outside [0, 1] (NaN included) is
	// rejected by name.
	if explicit["trace-sample"] {
		if math.IsNaN(traceSample) || traceSample < 0 || traceSample > 1 {
			return fmt.Errorf("-trace-sample must be in [0, 1], got %v", traceSample)
		}
		scenario.TraceSampleFraction = traceSample
	}
	if traceOut != "" && scenario.TraceSampleFraction <= 0 {
		return fmt.Errorf("-trace-out: tracing is disabled for scenario %q (set -trace-sample or run a traced scenario such as global-traced)", scenario.Name)
	}
	// -tracer-fraction overrides how much of every cohort population is
	// simulated individually; it is a tuning knob like -beta, so it applies
	// to loaded and registered scenarios too.  -1 (the default) keeps the
	// scenario's own setting; anything outside [0, 1] (NaN included) is
	// rejected by name.
	if explicit["tracer-fraction"] {
		if math.IsNaN(tracerFraction) || tracerFraction < 0 || tracerFraction > 1 {
			return fmt.Errorf("-tracer-fraction must be in [0, 1], got %v", tracerFraction)
		}
		scenario.TracerFraction = tracerFraction
	}
	// -shards overrides every region's engine-shard count regardless of how
	// the scenario was assembled (flags, registry or JSON file); 0 keeps each
	// scenario's own setting, matching the flag's documented default.
	if explicit["shards"] {
		if shards < 0 {
			return fmt.Errorf("-shards must be >= 0, got %d", shards)
		}
		if shards > 0 {
			for i := range scenario.Regions {
				scenario.Regions[i].Region.Shards = shards
			}
		}
	}
	// -event-workers bounds how many goroutines run the event loop's shard
	// loops (one sub-engine per region shard, cross-shard mailboxes), over
	// which the control tick's per-shard phase also fans out; 0 is the
	// inline one-worker run.  Results are byte-identical across every value.
	// -1 (the default) keeps the scenario's own setting; anything below it
	// is rejected by name.
	if explicit["event-workers"] {
		if eventWorkers < -1 {
			return fmt.Errorf("-event-workers must be >= -1 (-1 keeps the scenario's setting), got %d", eventWorkers)
		}
		if eventWorkers >= 0 {
			scenario.EventWorkers = eventWorkers
		}
	}
	// -gslb-policy overrides the global traffic director's routing policy.
	// The name is validated up front so a typo produces the list of valid
	// choices, and the scenario must actually carry global traffic —
	// enabling a director on a purely regional scenario would silently move
	// it onto the epochal engine and change its pinned bytes for nothing.
	if gslbPolicy != "" {
		kind, err := gslb.ParsePolicy(gslbPolicy)
		if err != nil {
			return err
		}
		global := scenario.GlobalClients > 0
		for _, a := range scenario.Arrivals {
			global = global || a.Region == ""
		}
		if !scenario.GSLB.Enabled() && !global {
			return fmt.Errorf("-gslb-policy: scenario %q has no global traffic (no GSLB config, global clients or global arrival streams)", scenario.Name)
		}
		scenario.GSLB.Policy = kind
	}
	// -rtt overrides the per-stream round-trip matrix.  Any non-empty matrix
	// makes the deployment latency-aware (RTT simulation + passive learning)
	// regardless of routing policy, so the policies can be compared on the
	// same network.
	if rttSpec != "" {
		rtt, err := cli.ParseRTT(rttSpec, len(scenario.Regions))
		if err != nil {
			return err
		}
		if !scenario.GSLB.Enabled() {
			return fmt.Errorf("-rtt: scenario %q has no GSLB config to attach a round-trip matrix to", scenario.Name)
		}
		scenario.GSLB.RTT = rtt
	}
	if dumpPath != "" {
		if err := experiment.SaveScenarioFile(dumpPath, scenario); err != nil {
			return err
		}
		fmt.Println("wrote scenario to", dumpPath)
		return nil
	}

	b, err := experiment.NewBackend(scenario, np)
	if err != nil {
		return err
	}

	// -metrics-addr: serve the live registry for the duration of the run.
	// The registry is updated at every control-era barrier, so a scrape
	// mid-run sees the last completed era's merged state.  Serve runs in its
	// own goroutine; its exit value lands in metricsErr so a listener that
	// dies mid-run fails the command instead of silently dropping scrapes,
	// and shutdown drains in-flight scrapes rather than slamming the socket.
	var (
		metricsSrv *http.Server
		metricsErr chan error
	)
	if metricsAddr != "" {
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler(b.Registry()))
		metricsSrv = &http.Server{Handler: mux}
		metricsErr = make(chan error, 1)
		go func() { metricsErr <- metricsSrv.Serve(ln) }()
		fmt.Printf("serving Prometheus metrics on http://%s/metrics\n", ln.Addr())
	}

	if eff := scenario.EffectiveClients(); eff != scenario.TotalClients() {
		fmt.Printf("deploying %d regions, %d effective clients (%d browsers + cohort-compressed), policy %s, predictor %s, %.1f simulated hours\n",
			len(scenario.Regions), eff, scenario.TotalClients(), np.Label, scenario.Predictor, scenario.Horizon.Seconds()/3600)
	} else {
		fmt.Printf("deploying %d regions, %d clients, policy %s, predictor %s, %.1f simulated hours\n",
			len(scenario.Regions), scenario.TotalClients(), np.Label, scenario.Predictor, scenario.Horizon.Seconds()/3600)
	}
	if err := b.Run(scenario.Horizon); err != nil {
		return err
	}
	if metricsSrv != nil {
		// Graceful shutdown first, then collect Serve's exit value — a
		// listener that failed mid-run left its error in the channel, and
		// Shutdown on an already-dead server returns nil, so both paths
		// surface the real cause.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := metricsSrv.Shutdown(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("-metrics-addr: shutting down: %w", err)
		}
		if err := <-metricsErr; err != nil && err != http.ErrServerClosed {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
	}

	printReport(os.Stdout, b)
	if tr, fr := experiment.TraceArtifacts(b); tr != nil {
		fmt.Printf("request tracing: %d sampled traces (fraction %g)\n", tr.Len(), tr.SampleFraction())
		fmt.Println("critical-path breakdown over sampled traces:")
		fmt.Print(tracing.BreakdownTable(tr.Traces()))
		if fr != nil {
			fmt.Println("engine flight recorder (per-lane epoch utilization, sim-time):")
			fmt.Print(fr.Table())
			fmt.Println("event-loop fan-out (host time, varies run to run):", experiment.EngineFanOut(b))
		}
		fmt.Println()
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				return err
			}
			werr := tracing.WriteChrome(f, tr.Traces(), fr)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("-trace-out: %w", werr)
			}
			fmt.Println("wrote Chrome trace to", traceOut, "(load in ui.perfetto.dev or chrome://tracing)")
		}
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := b.Recorder().WriteAllCSV(f); err != nil {
			return err
		}
		fmt.Println("wrote series to", csvPath)
	}
	return nil
}

// parseRegions turns "1,3" + "320,128" (and an optional "-cohort-clients"
// list) into the region setups.
func parseRegions(regionSpec, clientSpec, cohortSpec, mixName string) ([]acm.RegionSetup, error) {
	regionIDs := strings.Split(regionSpec, ",")
	clientCounts := strings.Split(clientSpec, ",")
	if len(regionIDs) != len(clientCounts) {
		return nil, fmt.Errorf("got %d regions but %d client counts", len(regionIDs), len(clientCounts))
	}
	var cohortCounts []string
	if cohortSpec != "" {
		cohortCounts = strings.Split(cohortSpec, ",")
		if len(cohortCounts) != len(regionIDs) {
			return nil, fmt.Errorf("-cohort-clients: got %d regions but %d cohort counts", len(regionIDs), len(cohortCounts))
		}
	}
	var mix workload.Mix
	switch mixName {
	case "browsing":
		mix = workload.BrowsingMix()
	case "shopping":
		mix = workload.ShoppingMix()
	case "ordering":
		mix = workload.OrderingMix()
	default:
		return nil, fmt.Errorf("unknown mix %q", mixName)
	}
	var out []acm.RegionSetup
	for i, idStr := range regionIDs {
		id, err := strconv.Atoi(strings.TrimSpace(idStr))
		if err != nil || id < 1 || id > 3 {
			return nil, fmt.Errorf("invalid paper region %q (use 1, 2 or 3)", idStr)
		}
		n, err := strconv.Atoi(strings.TrimSpace(clientCounts[i]))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("invalid client count %q", clientCounts[i])
		}
		cohort := 0
		if cohortCounts != nil {
			cohort, err = strconv.Atoi(strings.TrimSpace(cohortCounts[i]))
			if err != nil || cohort < 0 {
				return nil, fmt.Errorf("-cohort-clients: count %q must be an integer >= 0", cohortCounts[i])
			}
		}
		out = append(out, acm.RegionSetup{
			Region:        cloudsim.PaperRegionConfig(cloudsim.PaperRegion(id)),
			Clients:       n,
			CohortClients: cohort,
			Mix:           mix,
		})
	}
	return out, nil
}

// printReport writes the end-of-run state to w: figures, metrics and
// counters, with every per-region line in deployment order.  Everything it
// reads comes through the backend seam — the recorder, the client metrics
// and the Results snapshot — so a future live backend gets the same report
// for free.
func printReport(w io.Writer, b backend.Backend) {
	rec := b.Recorder()
	final := b.Results()
	fmt.Fprintln(w)
	fmt.Fprint(w, trace.ASCIIPlot(rec.Set("rmttf"), trace.PlotOptions{Title: "RMTTF per region (s)", Height: 12}))
	fmt.Fprint(w, trace.ASCIIPlot(rec.Set("fraction"), trace.PlotOptions{Title: "workload fraction f_i", Height: 12}))
	fmt.Fprint(w, trace.ASCIIPlot(rec.Set("response_time"), trace.PlotOptions{Title: "client response time (s)", Height: 10}))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "steady-state summary (last 40% of the run):")
	fmt.Fprint(w, trace.SummaryTable(rec.Set("rmttf"), 0.4))
	fmt.Fprint(w, trace.SummaryTable(rec.Set("fraction"), 0.4))
	fmt.Fprintln(w)

	fmt.Fprintln(w, "client metrics:", b.Metrics())
	fmt.Fprintf(w, "control eras: %d, controller messages: %d, forwarded requests: %d (%.1f%% of total)\n",
		final.Eras, final.ControlMessages, final.ForwardedRequests,
		100*float64(final.ForwardedRequests)/float64(final.ForwardedRequests+final.LocalRequests+1))
	fmt.Fprintf(w, "leader VMC: %s (elections run: %d)\n", final.Leader, final.Elections)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "per-region state:")
	for _, s := range final.RegionStats {
		fmt.Fprintln(w, "  ", s)
	}
	fmt.Fprintln(w, "per-region controller counters:")
	for _, name := range final.RegionNames {
		s := final.VMCStats[name]
		fmt.Fprintf(w, "   %s: proactive=%d reactive=%d activations=%d provisioned=%d\n",
			name, s.ProactiveRejuvenations, s.ReactiveRecoveries, s.Activations, s.ProvisionedVMs)
	}
	if len(final.ShardStats) > 0 {
		fmt.Fprintln(w, "per-shard state (sharded regions):")
		for _, name := range final.RegionNames {
			for _, s := range final.ShardStats[name] {
				fmt.Fprintln(w, "  ", s)
			}
		}
	}
	g := final.GSLB
	if g == nil {
		return
	}
	if !g.Replicated {
		fmt.Fprintf(w, "global traffic director: policy=%s probes=%d\n", g.Policy, g.Probes)
		for i, name := range final.RegionNames {
			fmt.Fprintf(w, "   %s: routed=%d health=%s\n", name, g.Routed[name], g.States[i])
		}
		if len(g.Transitions) > 0 {
			fmt.Fprintln(w, "   health transitions:")
			for _, t := range g.Transitions {
				fmt.Fprintln(w, "    ", t)
			}
		}
		if g.LatencyEWMA != nil {
			fmt.Fprintln(w, "   learned round trips (ms, EWMA / p95):")
			for _, sname := range g.Streams {
				for _, rname := range final.RegionNames {
					key := sname + ":" + rname
					fmt.Fprintf(w, "    %s: %.1f / %.1f\n", key, g.LatencyEWMA[key], g.LatencyP95[key])
				}
			}
		}
		return
	}
	st := final.Gossip
	fmt.Fprintf(w, "gossip health plane: %d replicas, policy=%s, %d rounds (sent=%d delivered=%d dropped=%d)\n",
		st.Replicas, g.Policy, st.Rounds, st.Sent, st.Delivered, st.Dropped)
	fmt.Fprintf(w, "   convergence: %d updates settled, mean lag %.1fs, final divergence %d, pending %d\n",
		st.Converged, st.MeanLagSeconds, st.MaxDivergence, st.Pending)
	for i, name := range final.RegionNames {
		fmt.Fprintf(w, "   %s: routed=%d owner-health=%s\n", name, g.Routed[name], g.States[i])
	}
	if len(g.Transitions) > 0 {
		fmt.Fprintln(w, "   health transitions (owner views):")
		for _, t := range g.Transitions {
			fmt.Fprintln(w, "    ", t)
		}
	}
}
