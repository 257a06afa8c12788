// Command figures regenerates the evaluation artefacts of the paper: the
// time-series figures (Figure 3 with two regions, Figure 4 with three
// regions), the qualitative-claims summary backing Section VI-B, and the
// ablations the reproduction adds (β sweep, exploration-factor sweep,
// baseline policies, homogeneous regions, predictor, gossip interval).
// Every sweep-shaped ablation runs on the -scenarios sweep pipeline and
// prints its table; beta and homogeneous are matrix sweeps, so their jobs
// run at the matrix's derived seed, and the others at -seed itself.
//
// Usage examples:
//
//	figures -figure 3                      # regenerate Figure 3 (all policies)
//	figures -figure 4 -policy policy2      # one policy only
//	figures -figure 3 -csv out/            # also write the raw series as CSV
//	figures -summary                       # both figures + claims checklist
//	figures -ablation beta                 # β sweep for equation (1)
//	figures -ablation k                    # k sweep for Policy 3
//	figures -ablation baseline             # uniform / static baselines
//	figures -ablation homogeneous          # every policy on homogeneous regions
//	figures -ablation predictor            # oracle vs. trained F2PM predictor
//	figures -ablation elasticity           # ADDVMS under a workload surge
//	figures -ablation cablecut             # passive latency learning through a cable cut
//	figures -ablation gossip               # convergence lag vs gossip round period
//	figures -scenarios figure3,figure4 -betas 0.25,0.75 -reps 10 \
//	        -sweep-csv sweep.csv -journal sweep.journal   # matrix sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/simclock"
	"repro/internal/trace"
)

func main() {
	var (
		figure   = flag.Int("figure", 0, "figure to regenerate: 3 (two regions) or 4 (three regions)")
		policy   = flag.String("policy", "all", "policy to run: policy1, policy2, policy3 or all")
		summary  = flag.Bool("summary", false, "run both figures with all policies and print the claims checklist")
		ablation = flag.String("ablation", "", "ablation to run: beta, k, baseline, homogeneous, predictor, gossip, elasticity or cablecut")
		seed     = flag.Uint64("seed", 42, "deterministic simulation seed")
		horizon  = flag.Float64("horizon", 2, "simulated hours per run")
		csvDir   = flag.String("csv", "", "directory to write the raw time series as CSV files")
		cohorts  = flag.Int("cohort-clients", 0, "add this many cohort-compressed clients to every region of the figure scenario (0 = none; see the megaclients scenarios for 10^6-scale runs)")
		tracerFr = flag.Float64("tracer-fraction", -1, "fraction of every cohort simulated as individual browsers feeding the latency series, in [0, 1] (-1 keeps the default 1%)")
	)
	// Matrix-sweep mode (experiment.Matrix); the flag set is shared with
	// cmd/acmsim.  -workers also drives the non-sweep figure runs here.
	sweep := cli.RegisterSweepFlags(flag.CommandLine,
		runtime.GOMAXPROCS(0), "parallel simulation workers (results are identical for any worker count)")
	workers := sweep.Workers
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if sweep.Active() {
		// The sweep defines its own scenarios and output; a figure/ablation
		// flag alongside -scenarios would be silently ignored, so reject it.
		for _, f := range []string{"figure", "ablation", "summary", "csv", "policy", "cohort-clients", "tracer-fraction"} {
			if explicit[f] {
				fmt.Fprintf(os.Stderr, "figures: -%s does not apply to sweeps (-scenarios); see -policies/-betas/-sweep-csv\n", f)
				os.Exit(1)
			}
		}
		if err := runMatrix(sweep, *seed, *horizon); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		return
	}
	for _, f := range cli.SweepOnlyFlagNames(false) {
		if explicit[f] {
			fmt.Fprintf(os.Stderr, "figures: -%s only applies to sweeps; pass -scenarios to run one\n", f)
			os.Exit(1)
		}
	}

	if *cohorts < 0 {
		fmt.Fprintf(os.Stderr, "figures: -cohort-clients must be >= 0, got %d\n", *cohorts)
		os.Exit(1)
	}
	if explicit["tracer-fraction"] && (*tracerFr < 0 || *tracerFr > 1) {
		fmt.Fprintf(os.Stderr, "figures: -tracer-fraction must be in [0, 1], got %v\n", *tracerFr)
		os.Exit(1)
	}
	if err := run(*figure, *policy, *summary, *ablation, *seed, *horizon, *csvDir, *cohorts, *tracerFr, explicit["tracer-fraction"], *workers); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// runMatrix expands a sweep over registered scenarios and runs its jobs on
// the shared pipeline (experiment.RunSweepAndEmit), with checkpointed
// resume and CSV/JSON row output.
func runMatrix(sweep *cli.SweepFlags, seed uint64, horizonHours float64) error {
	if err := cli.RequirePositive("horizon", horizonHours); err != nil {
		return err
	}
	m, err := sweep.Matrix(seed)
	if err != nil {
		return err
	}
	m.Horizon = simclock.Duration(horizonHours) * simclock.Hour
	jobs, err := m.Expand()
	if err != nil {
		return err
	}
	opt := sweep.Options()

	fmt.Printf("sweep: %d jobs (%d workers)\n", len(jobs), opt.Workers)
	return experiment.RunSweepAndEmit(context.Background(), jobs, opt, *sweep.Journal, *sweep.CSV, *sweep.JSON, os.Stdout)
}

func run(figure int, policy string, summary bool, ablation string, seed uint64, horizonHours float64, csvDir string, cohortClients int, tracerFraction float64, tracerSet bool, workers int) error {
	if err := cli.RequirePositive("horizon", horizonHours); err != nil {
		return err
	}
	horizon := simclock.Duration(horizonHours) * simclock.Hour
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opt := experiment.Options{Workers: workers}

	scenarioFor := func(fig int) (experiment.Scenario, error) {
		name := map[int]string{3: "figure3", 4: "figure4"}[fig]
		if name == "" {
			return experiment.Scenario{}, fmt.Errorf("unknown figure %d (use 3 or 4)", fig)
		}
		sc, err := experiment.BuildScenario(name, seed)
		if err != nil {
			return experiment.Scenario{}, err
		}
		sc.Horizon = horizon
		// -cohort-clients rides cohort-compressed populations alongside every
		// region's browsers; -tracer-fraction tunes how much of each cohort
		// feeds the latency series.
		if cohortClients > 0 {
			for i := range sc.Regions {
				sc.Regions[i].CohortClients = cohortClients
			}
		}
		if tracerSet {
			sc.TracerFraction = tracerFraction
		}
		return sc, nil
	}

	switch {
	case summary:
		// The full figure suite — both scenarios under every policy — runs as
		// one job matrix on the worker pool, so figure-4 jobs start while
		// figure-3 jobs are still in flight.
		policies := experiment.Policies()
		var scenarios []experiment.Scenario
		var jobs []experiment.Job
		for _, fig := range []int{3, 4} {
			sc, err := scenarioFor(fig)
			if err != nil {
				return err
			}
			scenarios = append(scenarios, sc)
			for _, np := range policies {
				jobs = append(jobs, experiment.Job{Index: len(jobs), Scenario: sc, Policy: np})
			}
		}
		fmt.Printf("running %d jobs (%d workers) ...\n", len(jobs), opt.Workers)
		results, err := experiment.RunParallel(context.Background(), jobs, opt)
		if err != nil {
			return err
		}
		if err := experiment.FirstError(results); err != nil {
			return err
		}
		for fi, sc := range scenarios {
			byKey := map[string]*experiment.Result{}
			for _, jr := range results[fi*len(policies) : (fi+1)*len(policies)] {
				byKey[jr.Job.Policy.Key] = jr.Result
			}
			if err := printScenario(sc, policies, byKey, csvDir); err != nil {
				return err
			}
		}
		return nil

	case ablation != "":
		return runAblation(os.Stdout, ablation, seed, horizon, opt)

	case figure != 0:
		sc, err := scenarioFor(figure)
		if err != nil {
			return err
		}
		return runScenario(sc, policy, csvDir, opt)

	default:
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -figure, -summary or -ablation")
	}
}

// runScenario runs one scenario under the requested policies on the parallel
// runner, printing the ASCII figures and the summary in presentation order,
// and optionally dumping CSVs.
func runScenario(sc experiment.Scenario, policy, csvDir string, opt experiment.Options) error {
	var policies []experiment.NamedPolicy
	if policy == "all" || policy == "" {
		policies = experiment.Policies()
	} else {
		np, err := experiment.PolicyByKey(policy)
		if err != nil {
			return err
		}
		policies = []experiment.NamedPolicy{np}
	}

	fmt.Printf("running %s under %d policies (%d workers) ...\n", sc.Name, len(policies), opt.Workers)
	results, err := experiment.RunPolicies(context.Background(), sc, policies, opt)
	if err != nil {
		return err
	}
	return printScenario(sc, policies, results, csvDir)
}

// printScenario renders one scenario's figures, summary table and (when every
// paper policy is present) the claims checklist, optionally dumping CSVs.
func printScenario(sc experiment.Scenario, policies []experiment.NamedPolicy, results map[string]*experiment.Result, csvDir string) error {
	for _, np := range policies {
		res := results[np.Key]
		fmt.Print(experiment.FigureReport(res))
		fmt.Println()
		if csvDir != "" {
			if err := writeCSVs(csvDir, sc.Name, np.Key, res); err != nil {
				return err
			}
		}
	}

	fmt.Printf("=== %s summary ===\n", sc.Name)
	fmt.Print(experiment.SummaryTable(results))
	if len(results) == len(experiment.Policies()) {
		fmt.Println("qualitative claims (Section VI-B):")
		fmt.Print(experiment.EvaluateClaims(results))
	}
	fmt.Println()
	return nil
}

// writeCSVs writes every recorded series set of one result as a CSV file.
func writeCSVs(dir, scenario, policy string, res *experiment.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, set := range res.Recorder.SetNames() {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s_%s.csv", scenario, policy, set))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := res.Recorder.WriteCSV(f, set); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

// runAblation executes one of the ablation studies, writing to out.  Every
// sweep-shaped ablation is a job list printed by the sweep pipeline's table.
func runAblation(out io.Writer, kind string, seed uint64, horizon simclock.Duration, opt experiment.Options) error {
	build := func(name string) (experiment.Scenario, error) {
		sc, err := experiment.BuildScenario(name, seed)
		sc.Horizon = horizon
		return sc, err
	}
	sweep := func(title string, jobs []experiment.Job) error {
		fmt.Fprintln(out, title)
		return experiment.RunSweepAndEmit(context.Background(), jobs, opt, "", "", "", out)
	}
	matrix := func(title string, m experiment.Matrix) error {
		m.BaseSeed, m.Horizon = seed, horizon
		jobs, err := m.Expand()
		if err != nil {
			return err
		}
		return sweep(title, jobs)
	}
	fig3, err := build("figure3")
	if err != nil {
		return err
	}
	policy2, _ := experiment.PolicyByKey("policy2")
	switch kind {
	case "beta":
		return matrix("β sweep (equation 1 smoothing) under Policy 2, Figure 3 scenario:", experiment.Matrix{
			Scenarios: []string{"figure3"}, Policies: []string{"policy2"}, Betas: []float64{0.1, 0.25, 0.5, 0.75, 1.0}})
	case "homogeneous":
		return matrix("all policies on three homogeneous regions (Policy 1 is expected to behave well here):",
			experiment.Matrix{Scenarios: []string{"homogeneous"}})
	case "k":
		return sweep("k sweep (equations 6 and 8) for Policy 3, Figure 3 scenario:",
			experiment.ExplorationKJobs(fig3, []float64{0.5, 0.75, 1.0, 1.25}))
	case "baseline":
		return sweep("Policy 2 vs. non-adaptive baselines, Figure 3 scenario:", experiment.BaselineJobs(fig3))
	case "predictor":
		return sweep("oracle vs. trained F2PM predictor, Policy 2, Figure 3 scenario:", experiment.PredictorJobs(fig3, policy2))
	case "gossip":
		gs, err := build("global-gossip")
		if err != nil {
			return err
		}
		jobs, err := experiment.GossipIntervalJobs(gs, policy2, []simclock.Duration{
			5 * simclock.Second, 10 * simclock.Second, 20 * simclock.Second, 40 * simclock.Second,
		})
		if err != nil {
			return err
		}
		return sweep("gossip-interval sweep (3 replicas, global-gossip scenario): convergence lag vs message cost:", jobs)
	case "elasticity":
		el, err := experiment.BuildScenario("elasticity", seed)
		if err != nil {
			return err
		}
		res, err := experiment.Run(el, policy2)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "ADDVMS elasticity under a mid-run workload surge (Policy 2):")
		fmt.Fprint(out, trace.ASCIIPlot(res.Recorder.Set("active_vms"), trace.PlotOptions{
			Title: "ACTIVE VMs per region", Height: 10, Width: 72}))
		fmt.Fprint(out, trace.ASCIIPlot(res.Recorder.Set("response_time"), trace.PlotOptions{
			Title: "client response time (s)", Height: 10, Width: 72}))
		fmt.Fprintf(out, "mean response time %.3fs, SLA violations %.2f%%, success ratio %.4f\n",
			res.MeanResponseTime, 100*res.SLAViolationRatio, res.SuccessRatio)
	case "cablecut":
		cc, err := build("global-cablecut")
		if err != nil {
			return err
		}
		res, err := experiment.Run(cc, policy2)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "passive latency learning through a mid-run cable cut (americas:region1 RTT doubles at minute 12):")
		fmt.Fprint(out, trace.ASCIIPlot(res.Recorder.Set("gslb_rtt"), trace.PlotOptions{
			Title: "learned round trip per stream:region (ms, EWMA)", Height: 10, Width: 72}))
		fmt.Fprint(out, trace.ASCIIPlot(res.Recorder.Set("gslb_routed"), trace.PlotOptions{
			Title: "cumulative routed requests per region", Height: 10, Width: 72}))
		regions := make([]string, 0, len(res.GSLBRouted))
		for region := range res.GSLBRouted {
			regions = append(regions, region)
		}
		sort.Strings(regions)
		for _, region := range regions {
			fmt.Fprintf(out, "  %s: routed=%d\n", region, res.GSLBRouted[region])
		}
	default:
		return fmt.Errorf("unknown ablation %q (use beta, k, baseline, homogeneous, predictor, elasticity, cablecut or gossip)", kind)
	}
	return nil
}
