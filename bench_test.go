// Package repro's root benchmark harness regenerates every evaluation
// artefact of the paper as a testing.B benchmark, so that
//
//	go test -bench=. -benchmem
//
// re-runs the complete evaluation: one benchmark per figure row (Figure 3 and
// Figure 4 under each of the three policies), one per ablation the
// reproduction adds, and one for the F2PM model-training toolchain (the model
// comparison the paper bases its REP-Tree choice on).  The reported
// ns/op is the wall-clock cost of simulating the full experiment; the
// benchmark bodies also assert the qualitative claims so a regression in the
// reproduced behaviour fails the run rather than silently changing shape.
package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/f2pm"
	"repro/internal/simclock"
)

// benchHorizon keeps the per-iteration simulation long enough to reach steady
// state while keeping `go test -bench=.` runs affordable.
const benchHorizon = 75 * simclock.Minute

// runScenarioBench runs one scenario under one policy per benchmark
// iteration.
func runScenarioBench(b *testing.B, sc experiment.Scenario, policyKey string) {
	b.Helper()
	np, err := experiment.PolicyByKey(policyKey)
	if err != nil {
		b.Fatal(err)
	}
	sc.Horizon = benchHorizon
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(sc, np)
		if err != nil {
			b.Fatal(err)
		}
		if res.Eras == 0 || res.MeanResponseTime <= 0 {
			b.Fatalf("degenerate run: %+v", res)
		}
		b.ReportMetric(res.RMTTFConvergence.RelativeSpread, "rmttf-spread")
		b.ReportMetric(res.MeanResponseTime*1000, "mean-rt-ms")
	}
}

// Figure 3: two heterogeneous regions (Ireland + Munich), Section VI-B.

func BenchmarkFigure3_Policy1(b *testing.B) {
	runScenarioBench(b, experiment.Figure3Scenario(42), "policy1")
}

func BenchmarkFigure3_Policy2(b *testing.B) {
	runScenarioBench(b, experiment.Figure3Scenario(42), "policy2")
}

func BenchmarkFigure3_Policy3(b *testing.B) {
	runScenarioBench(b, experiment.Figure3Scenario(42), "policy3")
}

// Figure 4: all three regions (Ireland + Frankfurt + Munich), Section VI-B.

func BenchmarkFigure4_Policy1(b *testing.B) {
	runScenarioBench(b, experiment.Figure4Scenario(42), "policy1")
}

func BenchmarkFigure4_Policy2(b *testing.B) {
	runScenarioBench(b, experiment.Figure4Scenario(42), "policy2")
}

func BenchmarkFigure4_Policy3(b *testing.B) {
	runScenarioBench(b, experiment.Figure4Scenario(42), "policy3")
}

// BenchmarkFigure3_QualitativeClaims runs the whole Figure 3 policy
// comparison once per iteration and fails if the Section VI-B claims no
// longer reproduce.
func BenchmarkFigure3_QualitativeClaims(b *testing.B) {
	sc := experiment.Figure3Scenario(42)
	sc.Horizon = benchHorizon
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, err := experiment.RunPolicies(context.Background(), sc, experiment.Policies(), experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		claims := experiment.EvaluateClaims(results)
		if !claims.Policy2Converges || !claims.AllPoliciesMeetSLA || claims.Policy1DoesNotConverge == false {
			b.Fatalf("qualitative claims regressed:\n%s\n%s", experiment.SummaryTable(results), claims)
		}
	}
}

// Parallel orchestration: the full figure suite (Figure 3 + Figure 4 under
// every policy, plus a beta sweep) as one job matrix, run sequentially and on
// the worker pool.  The two produce byte-identical results (the determinism
// tests in internal/experiment assert it); the ratio of their ns/op is the
// wall-clock speedup of the parallel runner on this machine's cores.

// figureMatrixJobs expands the Figure 3 + Figure 4 + beta-sweep matrix.
func figureMatrixJobs(b *testing.B) []experiment.Job {
	b.Helper()
	jobs, err := experiment.Matrix{
		Scenarios: []string{"figure3", "figure4"},
		Policies:  []string{"policy1", "policy2", "policy3"},
		BaseSeed:  42,
		Horizon:   benchHorizon,
	}.Expand()
	if err != nil {
		b.Fatal(err)
	}
	betaJobs, err := experiment.Matrix{
		Scenarios: []string{"figure3"},
		Policies:  []string{"policy2"},
		Betas:     []float64{0.25, 0.5, 0.75},
		BaseSeed:  42,
		Horizon:   benchHorizon,
	}.Expand()
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range betaJobs {
		j.Index = len(jobs)
		jobs = append(jobs, j)
	}
	return jobs
}

func runMatrixBench(b *testing.B, workers int) {
	jobs := figureMatrixJobs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiment.RunParallel(context.Background(), jobs, experiment.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if err := experiment.FirstError(results); err != nil {
			b.Fatal(err)
		}
		for _, jr := range results {
			if jr.Result.Eras == 0 {
				b.Fatalf("degenerate run: %s/%s", jr.Job.Scenario.Name, jr.Job.Policy.Key)
			}
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkMatrix_Sequential pins the sequential baseline: the whole matrix on
// a single worker.
func BenchmarkMatrix_Sequential(b *testing.B) { runMatrixBench(b, 1) }

// BenchmarkMatrix_Parallel runs the same matrix with one worker per CPU.  On a
// multi-core machine ns/op drops roughly linearly with core count (≥ 2× on 4
// cores); on a single-core machine it matches the sequential baseline.
func BenchmarkMatrix_Parallel(b *testing.B) { runMatrixBench(b, runtime.GOMAXPROCS(0)) }

// E4: the F2PM model-training toolchain (profiling + Lasso selection + the
// six model families + ranking), which backs the paper's REP-Tree choice.

func BenchmarkMLTraining_Toolchain(b *testing.B) {
	pcfg := f2pm.ProfileConfig{
		Seed:           7,
		Instance:       cloudsim.PrivateVM,
		VMs:            3,
		RatePerVM:      8,
		SampleInterval: 30 * simclock.Second,
		TargetFailures: 8,
	}.WithDefaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		model, report, err := f2pm.TrainFromProfile(pcfg, f2pm.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if model.Name != "REPTree" || len(report.Scores) != 6 {
			b.Fatalf("unexpected toolchain outcome: model=%s scores=%d", model.Name, len(report.Scores))
		}
		b.ReportMetric(report.ChosenMetrics.RMSE, "reptree-rmse-s")
	}
}

// E5 ablations: design-choice sweeps called out in DESIGN.md.

// runSweepBench runs an ablation's job list through the sweep pipeline and
// fails on a missing row or a job error.
func runSweepBench(b *testing.B, jobs []experiment.Job) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunSweep(context.Background(), jobs, experiment.Options{}, "")
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(jobs) {
			b.Fatalf("expected %d sweep rows, got %d", len(jobs), len(rows))
		}
		for _, r := range rows {
			if r.Err != "" {
				b.Fatalf("%s/%s: %s", r.Scenario, r.Policy, r.Err)
			}
		}
	}
}

// BenchmarkAblation_BetaSweep sweeps the smoothing factor β of equation (1)
// under Policy 2.
func BenchmarkAblation_BetaSweep(b *testing.B) {
	jobs, err := experiment.Matrix{Scenarios: []string{"figure3"}, Policies: []string{"policy2"},
		Betas: []float64{0.25, 0.75}, BaseSeed: 42, Horizon: 45 * simclock.Minute}.Expand()
	if err != nil {
		b.Fatal(err)
	}
	runSweepBench(b, jobs)
}

// BenchmarkAblation_ExplorationK sweeps the scaling factor k of Policy 3.
func BenchmarkAblation_ExplorationK(b *testing.B) {
	sc := experiment.Figure3Scenario(42)
	sc.Horizon = 45 * simclock.Minute
	runSweepBench(b, experiment.ExplorationKJobs(sc, []float64{0.75, 1.25}))
}

// BenchmarkAblation_Baselines compares Policy 2 against the uniform and
// static baselines.
func BenchmarkAblation_Baselines(b *testing.B) {
	sc := experiment.Figure3Scenario(42)
	sc.Horizon = 45 * simclock.Minute
	runSweepBench(b, experiment.BaselineJobs(sc))
}

// BenchmarkAblation_Homogeneous runs Policy 1 on three identical regions (the
// environment the paper says sensible routing is suited to).
func BenchmarkAblation_Homogeneous(b *testing.B) {
	sc := experiment.HomogeneousScenario(42)
	sc.Horizon = 45 * simclock.Minute
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(sc, experiment.NamedPolicy{
			Key: "policy1", Label: "Policy 1 (sensible routing)", Policy: core.SensibleRouting{}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RMTTFConvergence.RelativeSpread, "rmttf-spread")
	}
}

// BenchmarkAblation_Elasticity runs the ADDVMS elasticity scenario: an
// under-provisioned region absorbs a 3× client surge by activating and
// provisioning VMs (Section V, Algorithm 3).
func BenchmarkAblation_Elasticity(b *testing.B) {
	np, _ := experiment.PolicyByKey("policy2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(experiment.ElasticityScenario(11), np)
		if err != nil {
			b.Fatal(err)
		}
		if res.TailResponseTime >= 1.0 {
			b.Fatalf("elasticity failed to keep the tail response time under the SLA: %v", res.TailResponseTime)
		}
		b.ReportMetric(res.TailResponseTime*1000, "tail-rt-ms")
	}
}

// BenchmarkAblation_MLPredictor runs the Figure 3 scenario with the trained
// F2PM predictor instead of the oracle, measuring the cost of the full
// profiling + training + ML-driven control pipeline.
func BenchmarkAblation_MLPredictor(b *testing.B) {
	sc := experiment.Figure3Scenario(42)
	sc.Horizon = 45 * simclock.Minute
	np, _ := experiment.PolicyByKey("policy2")
	runSweepBench(b, experiment.PredictorJobs(sc, np))
}
