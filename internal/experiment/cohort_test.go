package experiment

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/simclock"
)

// The cohort-compression suite: the megaclients scenarios must behave like
// deployments (smoke), agree with individually simulated populations on the
// aggregate metrics (equivalence), stay byte-identical across worker counts
// (determinism — including the tracer-fed response-time series hashed into
// the fingerprint), and be pinned by goldens of their own.

// cohortScenarioNames lists the registered cohort-compressed scenarios.
func cohortScenarioNames() []string {
	return []string{"megaclients", "global-megaclients"}
}

// TestCohortScenarioSmoke: cheap always-on canary — both million-client
// scenarios build, run a few minutes, serve batched traffic, and the latency
// series is tracer-fed (samples are a tiny fraction of the weighted
// completions).
func TestCohortScenarioSmoke(t *testing.T) {
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cohortScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := BuildScenario(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			sc.Horizon = 5 * simclock.Minute
			b, err := NewBackend(sc, np)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Run(sc.Horizon); err != nil {
				t.Fatal(err)
			}
			res := summarize(sc, np, b)
			met := b.Metrics()
			if res.Eras == 0 {
				t.Fatal("no control eras completed")
			}
			if res.SuccessRatio < 0.5 {
				t.Fatalf("success ratio %.3f, want >= 0.5", res.SuccessRatio)
			}
			// Weighted throughput must be in the million-client regime:
			// 10^6 clients at 60 s think is ~16.7k interactions/s.
			rate := float64(met.Issued("")) / sc.Horizon.Seconds()
			wantRate := float64(sc.EffectiveClients()) / sc.ThinkTime.Seconds()
			if rate < 0.5*wantRate {
				t.Fatalf("issued rate %.0f/s, want >= half of the closed-loop rate %.0f/s", rate, wantRate)
			}
			// The response-time series comes from tracers, not batches.
			samples := met.ResponseSamples("")
			if samples == 0 {
				t.Fatal("tracers recorded no latency samples")
			}
			if samples >= met.Completed("")/10 {
				t.Fatalf("latency series looks batch-fed: %d samples of %d weighted completions",
					samples, met.Completed(""))
			}
			if res.MeanResponseTime <= 0 {
				t.Fatalf("mean response time %v, want > 0", res.MeanResponseTime)
			}
		})
	}
}

// TestCohortIndividualEquivalence is the accuracy contract of the
// compression: the figure3 deployment with both populations cohort-compressed
// must agree with the individually simulated original on the aggregate
// metrics — measured arrival rate, success ratio and mean response time —
// within statistical tolerance at matched seeds.  Latency distributions are
// compared through the tracers, which are ordinary browsers.
func TestCohortIndividualEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 30-minute simulations")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(compress bool) (lambdaTail, meanRT, success float64) {
		sc, err := BuildScenario("figure3", 42)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = goldenHorizon
		if compress {
			for i := range sc.Regions {
				sc.Regions[i].CohortClients = sc.Regions[i].Clients
				sc.Regions[i].Clients = 0
			}
			sc.TracerFraction = 0.05
			sc.CohortMaxBatch = 8
		}
		res, err := Run(sc, np)
		if err != nil {
			t.Fatal(err)
		}
		return res.Recorder.Series("lambda", "global").TailMean(0.4),
			res.MeanResponseTime, res.SuccessRatio
	}
	il, im, is := run(false)
	cl, cm, cs := run(true)

	// Throughput: both closed loops run the same client count at the same
	// think time, so the steady-state arrival rates must agree closely.
	if math.Abs(cl-il)/il > 0.15 {
		t.Fatalf("tail lambda diverged: cohort %.1f/s vs individual %.1f/s", cl, il)
	}
	if cs < 0.9*is {
		t.Fatalf("success ratio degraded under compression: %.4f vs %.4f", cs, is)
	}
	// Response time: batches change queueing granularity, so the tolerance is
	// a band, not bytes — the cohort mean (tracer-fed) must stay in the same
	// regime as the individual mean.
	if ratio := cm / im; ratio < 0.5 || ratio > 2.0 {
		if math.Abs(cm-im) > 0.15 {
			t.Fatalf("mean response time diverged: cohort %.3fs vs individual %.3fs", cm, im)
		}
	}
}

// TestCohortWorkersEquivalence pins the cohort determinism contract on the
// richest cross-shard deployment: figure4-eventloop with a cohort population
// riding alongside every region's browsers must produce byte-identical
// output — summary plus the SHA-256 of every raw series, which includes the
// tracer-fed response-time series — at EventWorkers 1, 4 and GOMAXPROCS.
func TestCohortWorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cohort figure4 event-loop simulation once per worker count")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		sc, err := BuildScenario("figure4-eventloop", 42)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = 10 * simclock.Minute
		sc.EventWorkers = workers
		// Double each region's population with cohort-compressed clients and
		// stretch the think time so the deployment stays inside capacity.
		for i := range sc.Regions {
			sc.Regions[i].CohortClients = 128
		}
		sc.ThinkTime = 14 * simclock.Second
		sc.CohortMaxBatch = 16
		res, err := Run(sc, np)
		if err != nil {
			t.Fatal(err)
		}
		return eventLoopFingerprint(t, res)
	}
	ref := run(1)
	for _, workers := range eventLoopWorkerCounts()[1:] {
		if got := run(workers); !bytes.Equal(got, ref) {
			t.Fatalf("EventWorkers=%d diverged from EventWorkers=1\n--- got ---\n%s\n--- want ---\n%s", workers, got, ref)
		}
	}
}

// TestMegaclientsWorkersEquivalence replays both million-client scenarios at
// EventWorkers 1 vs GOMAXPROCS on a shortened horizon: the binomial splits,
// the batch submissions and the director-routed global cohorts must all be
// worker-count-invariant at full scale, not just in the small deployments.
func TestMegaclientsWorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the megaclients deployments once per worker count")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cohortScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func(workers int) []byte {
				sc, err := BuildScenario(name, 42)
				if err != nil {
					t.Fatal(err)
				}
				sc.Horizon = 5 * simclock.Minute
				sc.EventWorkers = workers
				res, err := Run(sc, np)
				if err != nil {
					t.Fatal(err)
				}
				return eventLoopFingerprint(t, res)
			}
			ref := run(1)
			if got := run(runtime.GOMAXPROCS(0)); !bytes.Equal(got, ref) {
				t.Fatalf("%s EventWorkers=GOMAXPROCS diverged from EventWorkers=1", name)
			}
		})
	}
}

// TestGoldenCohortScenarios byte-pins both million-client scenarios under
// policy2 — summary, routed counts (global-megaclients) and the SHA-256 of
// every raw series.  Regenerate with:
//
//	go test ./internal/experiment -run TestGoldenCohort -update
func TestGoldenCohortScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 30-minute million-client simulations")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cohortScenarioNames() {
		name := name
		t.Run(name+"/policy2", func(t *testing.T) {
			sc, err := BuildScenario(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			sc.Horizon = goldenHorizon
			res, err := Run(sc, np)
			if err != nil {
				t.Fatal(err)
			}
			got := eventLoopFingerprint(t, res)
			checkGolden(t, fmt.Sprintf("%s-policy2.json", name), got)
		})
	}
}

// TestCohortScenarioJSONRoundTrip: the cohort fields are plain data and must
// survive the config-file round trip (cmd/acmsim -dump-config / -config),
// per-region and global alike.
func TestCohortScenarioJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range cohortScenarioNames() {
		sc, err := BuildScenario(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := SaveScenarioFile(path, sc); err != nil {
			t.Fatal(err)
		}
		back, err := LoadScenarioFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.CohortClients != sc.CohortClients || back.TracerFraction != sc.TracerFraction ||
			back.ThinkTime != sc.ThinkTime || back.CohortTick != sc.CohortTick ||
			back.CohortMaxBatch != sc.CohortMaxBatch {
			t.Fatalf("%s: round trip lost cohort fields: %+v", name, back)
		}
		for i := range sc.Regions {
			if back.Regions[i].CohortClients != sc.Regions[i].CohortClients {
				t.Fatalf("%s: region %d CohortClients lost in round trip", name, i)
			}
		}
		if back.EffectiveClients() != sc.EffectiveClients() {
			t.Fatalf("%s: EffectiveClients %d != %d after round trip",
				name, back.EffectiveClients(), sc.EffectiveClients())
		}
	}
}
