package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
)

// The parallel-event-loop suite: the sharded event loop (one sub-engine per
// region shard, cross-shard mailboxes, lockstep epochs) must be
// byte-identical across every EventWorkers and every GOMAXPROCS, and its
// multi-shard behaviour is pinned by goldens of its own.

// eventLoopWorkerCounts are the worker counts every event-loop equivalence
// test runs: inline (1), a fixed fan-out (4) and whatever the host offers
// (deduplicated — on a 4-core host GOMAXPROCS is already 4).
func eventLoopWorkerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// eventLoopFingerprint renders a Result into the byte-pinned golden summary.
func eventLoopFingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	g, err := goldenFromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestEventLoopSmoke runs a short figure4 on the sharded event loop and
// checks the deployment actually behaves like a deployment: requests are
// served, control eras complete and the SLA holds.  It is the cheap
// always-on canary for the parallel event loop (the equivalence and golden
// tests below are skipped in -short mode).
func TestEventLoopSmoke(t *testing.T) {
	sc, err := BuildScenario("figure4-eventloop", 42)
	if err != nil {
		t.Fatal(err)
	}
	sc.Horizon = 5 * simclock.Minute
	sc.EventWorkers = 2
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, np)
	if err != nil {
		t.Fatal(err)
	}
	mgr := res
	if mgr.Eras == 0 {
		t.Fatal("no control eras completed on the event loop")
	}
	if res.SuccessRatio < 0.5 {
		t.Fatalf("success ratio %.3f on the event loop, want >= 0.5", res.SuccessRatio)
	}
	if res.MeanResponseTime <= 0 {
		t.Fatalf("mean response time %v, want > 0", res.MeanResponseTime)
	}
}

// TestEventLoopWorkersEquivalence is the event-loop determinism workhorse:
// the 3-shard figure4 deployment — cross-region forwarding, standby
// promotions and reactive recoveries all crossing shards through mailboxes —
// must produce byte-identical output (full summary plus the SHA-256 of every
// raw series) at EventWorkers 1, 4 and GOMAXPROCS.  The CI
// multicore-determinism job replays it with GOMAXPROCS=4 under -race, where
// EventWorkers > 1 genuinely runs the shard loops on distinct cores.
func TestEventLoopWorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figure4 event-loop simulation once per worker count")
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
		sc.Horizon = goldenHorizon
		sc.EventWorkers = workers
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

// TestEventLoopRunTwiceDeterministic reruns the same event-loop
// configuration in one process and demands identical bytes — the guard
// against hidden shared state (package-level caches, map iteration, pointer
// identities) leaking into results.
func TestEventLoopRunTwiceDeterministic(t *testing.T) {
	np, err := PolicyByKey("policy1")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		sc, err := BuildScenario("figure4-eventloop", 7)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = 5 * simclock.Minute
		sc.EventWorkers = runtime.GOMAXPROCS(0)
		res, err := Run(sc, np)
		if err != nil {
			t.Fatal(err)
		}
		return eventLoopFingerprint(t, res)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical event-loop runs diverged\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestMegaregionEventLoopEquivalence pins the 16-shard megaregion — the
// scale configuration the event loop exists for — across worker counts on a
// shortened horizon (the full scenario is benchmark territory): the summary,
// every raw series and the per-shard statistics are identical at
// EventWorkers 1, 4 and GOMAXPROCS.  The control tick's per-shard phase fans
// out over the same workers, so this is also the equivalence pin of the
// parallel tick against the inline one at 16 shards, and under -race with
// GOMAXPROCS > 1 the mutation audit of its parallel phase.
func TestMegaregionEventLoopEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 5x10^3-VM region once per worker count")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) ([]byte, map[string][]cloudsim.Stats) {
		sc, err := BuildScenario("megaregion-eventloop", 42)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = 5 * simclock.Minute
		sc.EventWorkers = workers
		res, b, err := RunBackend(sc, np)
		if err != nil {
			t.Fatal(err)
		}
		stats := b.Results().ShardStats
		if len(stats["megaregion"]) != MegaregionShards {
			t.Fatalf("EventWorkers=%d: %d shard stats, want %d", workers, len(stats["megaregion"]), MegaregionShards)
		}
		return eventLoopFingerprint(t, res), stats
	}
	ref, refStats := run(1)
	for _, workers := range eventLoopWorkerCounts()[1:] {
		got, stats := run(workers)
		if !bytes.Equal(got, ref) {
			t.Fatalf("megaregion-eventloop EventWorkers=%d diverged from EventWorkers=1\n--- got ---\n%s\n--- want ---\n%s", workers, got, ref)
		}
		if !reflect.DeepEqual(stats, refStats) {
			t.Fatalf("megaregion-eventloop EventWorkers=%d produced different ShardStats than EventWorkers=1:\n%+v\n%+v", workers, stats, refStats)
		}
	}
}

// TestGoldenEventLoopScenarios byte-pins the parallel event loop the same
// way the figure scenarios are pinned: figure4-eventloop under each policy,
// recorded at the scenario's default EventWorkers and compared down to the
// SHA-256 of every raw series.  Regenerate with:
//
//	go test ./internal/experiment -run TestGoldenEventLoop -update
func TestGoldenEventLoopScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three 30-minute event-loop simulations")
	}
	for _, np := range Policies() {
		np := np
		t.Run("figure4-eventloop/"+np.Key, func(t *testing.T) {
			sc, err := BuildScenario("figure4-eventloop", 42)
			if err != nil {
				t.Fatal(err)
			}
			sc.Horizon = goldenHorizon
			res, err := Run(sc, np)
			if err != nil {
				t.Fatal(err)
			}
			got := eventLoopFingerprint(t, res)
			checkGolden(t, fmt.Sprintf("figure4-eventloop-%s.json", np.Key), got)
		})
	}
}
