package experiment

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/simclock"
)

func init() {
	// A reduced figure-3-shaped scenario so parallel sweeps stay fast in unit
	// tests; registered once for every test in the package.
	registerTestScenario("quick-test", "reduced two-region scenario for unit tests", func(seed uint64) Scenario {
		sc := quickScenario(seed)
		sc.Horizon = 12 * simclock.Minute
		return sc
	})
}

// fingerprint serialises everything observable about a job result so runs can
// be compared byte-for-byte: the summary row plus every recorded raw series.
func fingerprint(t *testing.T, jr JobResult) []byte {
	t.Helper()
	if jr.Err != nil {
		t.Fatalf("job %d (%s/%s): %v", jr.Job.Index, jr.Job.Scenario.Name, jr.Job.Policy.Key, jr.Err)
	}
	r := jr.Result
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s/%s eras=%d conv=%v spread=%v convTime=%v osc=%v dirs=%v meanRT=%v tailRT=%v sla=%v success=%v fwd=%v rejuv=%d crashes=%d fractions=%v\n",
		r.Scenario.Name, r.PolicyKey, r.Eras,
		r.RMTTFConvergence.Converged, r.RMTTFConvergence.RelativeSpread, r.RMTTFConvergence.ConvergenceTime,
		r.FractionOscillation, r.FractionDirectionChanges,
		r.MeanResponseTime, r.TailResponseTime, r.SLAViolationRatio, r.SuccessRatio,
		r.ForwardedFraction, r.ProactiveRejuvenations, r.Crashes, r.FinalFractions)
	if err := r.Recorder.WriteAllCSV(&b); err != nil {
		t.Fatalf("serialising recorder: %v", err)
	}
	return b.Bytes()
}

func sweepFingerprint(t *testing.T, results []JobResult) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, jr := range results {
		b.Write(fingerprint(t, jr))
	}
	return b.Bytes()
}

// TestRunParallelDeterministicAcrossWorkerCounts is the core determinism
// guarantee of the runner: the same matrix (figure-shaped scenarios under all
// three policies plus a beta sweep) produces byte-identical results for 1
// worker, 4 workers and GOMAXPROCS workers, because every job's seed is fixed
// at expansion time and jobs share no state.
func TestRunParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep matrix three times")
	}
	m := Matrix{
		Scenarios: []string{"quick-test"},
		Policies:  []string{"policy1", "policy2", "policy3"},
		BaseSeed:  42,
	}
	jobs, err := m.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	beta := Matrix{
		Scenarios: []string{"quick-test"},
		Policies:  []string{"policy2"},
		Betas:     []float64{0.25, 0.75},
		BaseSeed:  42,
	}
	betaJobs, err := beta.Expand()
	if err != nil {
		t.Fatalf("Expand(beta): %v", err)
	}
	for _, j := range betaJobs {
		j.Index = len(jobs)
		jobs = append(jobs, j)
	}

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var want []byte
	for _, workers := range workerCounts {
		results, err := RunParallel(context.Background(), jobs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("RunParallel(workers=%d): %v", workers, err)
		}
		if len(results) != len(jobs) {
			t.Fatalf("RunParallel(workers=%d): %d results for %d jobs", workers, len(results), len(jobs))
		}
		got := sweepFingerprint(t, results)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d produced different bytes than workers=%d (%d vs %d bytes)",
				workers, workerCounts[0], len(got), len(want))
		}
	}
}

// TestRunParallelMatchesSequentialRun pins the parallel runner to the plain
// sequential Run: same scenario, same seed, same bytes.
func TestRunParallelMatchesSequentialRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	sc, err := BuildScenario("quick-test", 7)
	if err != nil {
		t.Fatal(err)
	}
	np, err := PolicyByKey("policy3") // stateful policy: exercises ClonePolicy
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(sc, np)
	if err != nil {
		t.Fatalf("sequential Run: %v", err)
	}
	results, err := RunParallel(context.Background(), []Job{{Index: 0, Scenario: sc, Policy: np}}, Options{Workers: 4})
	if err != nil {
		t.Fatalf("RunParallel: %v", err)
	}
	seqBytes := fingerprint(t, JobResult{Job: results[0].Job, Result: seq})
	parBytes := fingerprint(t, results[0])
	if !bytes.Equal(seqBytes, parBytes) {
		t.Fatalf("parallel result differs from sequential result")
	}
}

func TestRunParallelReportsPerJobErrors(t *testing.T) {
	broken := quickScenario(1)
	broken.Regions = nil
	ok := quickScenario(2)
	ok.Horizon = 3 * simclock.Minute
	jobs := []Job{
		{Index: 0, Scenario: broken, Policy: NamedPolicy{Key: "p", Label: "p", Policy: core.Uniform{}}},
		{Index: 1, Scenario: ok, Policy: NamedPolicy{Key: "q", Label: "q", Policy: core.Uniform{}}},
	}
	results, err := RunParallel(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatalf("RunParallel should not fail overall on a per-job error: %v", err)
	}
	if results[0].Err == nil {
		t.Fatalf("broken job should carry its error")
	}
	if results[1].Err != nil || results[1].Result == nil {
		t.Fatalf("healthy job should succeed: %+v", results[1].Err)
	}
	if FirstError(results) == nil {
		t.Fatalf("FirstError should surface the broken job")
	}
}

func TestRunParallelContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := quickScenario(1)
	sc.Horizon = 3 * simclock.Minute
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Index: i, Scenario: sc, Policy: NamedPolicy{Key: "u", Label: "u", Policy: core.Uniform{}}}
	}
	results, err := RunParallel(ctx, jobs, Options{Workers: 2})
	if err == nil {
		t.Fatalf("cancelled context should surface an error")
	}
	undispatched := 0
	for _, jr := range results {
		if jr.Result == nil {
			if jr.Err == nil {
				t.Fatalf("undispatched job %d has no error", jr.Job.Index)
			}
			undispatched++
		}
	}
	if undispatched == 0 {
		t.Fatalf("a pre-cancelled context should leave jobs undispatched")
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int32
		err := ForEach(context.Background(), n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: ForEach: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestForEachSequentialRunsInOrder(t *testing.T) {
	var order []int
	err := ForEach(context.Background(), 5, 1, func(i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil || !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("sequential ForEach visited %v (err %v), want [0 1 2 3 4]", order, err)
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	for _, n := range []int{0, -3} {
		if err := ForEach(context.Background(), n, 4, func(int) error { called = true; return nil }); err != nil {
			t.Fatalf("ForEach(n=%d): %v", n, err)
		}
	}
	if called {
		t.Fatal("ForEach must not call fn for n <= 0")
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const n, workers = 32, 3
	var mu sync.Mutex
	running, peak := 0, 0
	err := ForEach(context.Background(), n, workers, func(int) error {
		mu.Lock()
		running++
		if running > peak {
			peak = running
		}
		mu.Unlock()
		runtime.Gosched()
		mu.Lock()
		running--
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if peak > workers {
		t.Fatalf("concurrency exceeded the bound: peak=%d workers=%d", peak, workers)
	}
}

func TestForEachJoinsErrors(t *testing.T) {
	err := ForEach(context.Background(), 5, 2, func(i int) error {
		if i%2 == 1 {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatalf("ForEach should join the per-call errors")
	}
}

func TestRunPoliciesMatchesRunAllPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six simulations")
	}
	sc, err := BuildScenario("quick-test", 9)
	if err != nil {
		t.Fatal(err)
	}
	all, err := RunAllPolicies(sc)
	if err != nil {
		t.Fatalf("RunAllPolicies: %v", err)
	}
	again, err := RunPolicies(context.Background(), sc, Policies(), Options{Workers: 1})
	if err != nil {
		t.Fatalf("RunPolicies: %v", err)
	}
	for _, key := range []string{"policy1", "policy2", "policy3"} {
		a, b := all[key], again[key]
		if a == nil || b == nil {
			t.Fatalf("missing result for %s", key)
		}
		aBytes := fingerprint(t, JobResult{Result: a})
		bBytes := fingerprint(t, JobResult{Result: b})
		if !bytes.Equal(aBytes, bBytes) {
			t.Fatalf("%s differs between worker counts", key)
		}
	}
}

// TestManagersShareNoState builds two managers from the same scenario and
// steps them concurrently; under -race this proves manager construction from
// a scenario introduces no shared mutable globals.
func TestManagersShareNoState(t *testing.T) {
	sc := quickScenario(5)
	sc.Horizon = 5 * simclock.Minute
	np, err := PolicyByKey("policy3")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	outs := make([]*Result, 4)
	errs := make([]error, 4)
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = Run(sc, np)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	first := fingerprint(t, JobResult{Result: outs[0]})
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(first, fingerprint(t, JobResult{Result: outs[i]})) {
			t.Fatalf("concurrent run %d diverged from run 0", i)
		}
	}
}
