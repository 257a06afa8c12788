package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
)

// TestParallelTickReproducesGoldens pins that the inline one-worker run
// never fans out: figure3 and figure4 under every policy reproduce their
// golden byte-pins (including the SHA-256 of every raw series) with
// GOMAXPROCS raised to 4 and to the host's count.  The tick takes its
// fan-out only from the event loop's worker pool (ShardedEngine.ParallelPhase);
// ShardedEngine defaults to GOMAXPROCS workers when handed 0, so this is the
// guard that no path at EventWorkers 0 picks the host's core count up as a
// parallelism knob.  The fanned-out tick itself is pinned by
// the event-loop equivalence suite (TestEventLoopWorkersEquivalence,
// TestMegaregionEventLoopEquivalence).  The figure regions are single-shard;
// the multi-shard half of the guard is TestFigureShardedParallelEquivalence
// and TestShardedTickWorkersEquivalence below.
func TestParallelTickReproducesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns the six golden simulations per GOMAXPROCS value")
	}
	for _, workers := range eventLoopWorkerCounts() {
		if workers == 1 {
			// GOMAXPROCS=1 cannot fan anything out; the default-configuration
			// replay is TestGoldenFigureScenarios.
			continue
		}
		workers := workers
		for _, name := range []string{"figure3", "figure4"} {
			for _, np := range Policies() {
				np := np
				t.Run(fmt.Sprintf("%s/%s/workers=%d", name, np.Key, workers), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
					sc, err := BuildScenario(name, 42)
					if err != nil {
						t.Fatal(err)
					}
					sc.Horizon = goldenHorizon
					res, err := Run(sc, np)
					if err != nil {
						t.Fatal(err)
					}
					g, err := goldenFromResult(res)
					if err != nil {
						t.Fatal(err)
					}
					got, err := json.MarshalIndent(g, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, '\n')
					path := filepath.Join("testdata", "golden", fmt.Sprintf("%s-%s.json", name, np.Key))
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden file: %v", err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("GOMAXPROCS=%d drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s", workers, path, got, want)
					}
				})
			}
		}
	}
}

// TestFigureShardedParallelEquivalence runs the richest control-tick paths
// the repo has — the figure4 deployment (three heterogeneous regions,
// elasticity on, staggered rejuvenation waves, the leader's closed control
// loop) with every region split across 3 shards — at EventWorkers 0 (the
// inline run), and demands byte-identical output (full summary plus the SHA-256 of every raw
// series) at GOMAXPROCS 1, 4 and the host's count.  Unlike the single-shard
// golden replay above, here the tick has per-shard partials to merge, so any
// step whose order or partition follows the host's core count (a fold of the
// partials that is not in shard-index order, a fan-out that shares scratch
// between shards) shows up as a byte difference or, under -race, a
// reported race.
func TestFigureShardedParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figure4 simulation once per GOMAXPROCS value")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sc, err := BuildScenario("figure4", 42)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = goldenHorizon
		for i := range sc.Regions {
			sc.Regions[i].Region.Shards = 3
		}
		res, err := Run(sc, np)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		g, err := goldenFromResult(res)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, procs := range eventLoopWorkerCounts()[1:] {
		if got := run(procs); !bytes.Equal(got, ref) {
			t.Fatalf("sharded figure4 at GOMAXPROCS=%d diverged from GOMAXPROCS=1:\n%s\nvs\n%s", procs, got, ref)
		}
	}
}

// TestShardedTickWorkersEquivalence is the scale half of the inline-run
// guard: the 16-shard megaregion-eventloop deployment at one event worker
// produces byte-identical raw series and identical per-shard statistics at
// GOMAXPROCS 1, 4 and the host's count, so its control tick walks the shards
// in order on one goroutine whatever the host offers.  The fanned-out tick
// at the same scale is TestMegaregionEventLoopEquivalence.
func TestShardedTickWorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 5x10^3-VM scenario once per GOMAXPROCS value")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int) ([]byte, map[string][]cloudsim.Stats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sc, err := BuildScenario("megaregion-eventloop", 42)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = 4 * simclock.Minute
		sc.EventWorkers = 1
		mgr, err := NewManager(sc, np)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Run(sc.Horizon); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		var csv bytes.Buffer
		if err := mgr.Recorder().WriteAllCSV(&csv); err != nil {
			t.Fatal(err)
		}
		stats := mgr.ShardStats()
		if len(stats["megaregion"]) != MegaregionShards {
			t.Fatalf("GOMAXPROCS=%d: %d shard stats, want %d", procs, len(stats["megaregion"]), MegaregionShards)
		}
		return csv.Bytes(), stats
	}
	refCSV, refStats := run(1)
	for _, procs := range eventLoopWorkerCounts()[1:] {
		csv, stats := run(procs)
		if !bytes.Equal(csv, refCSV) {
			t.Fatalf("GOMAXPROCS=%d produced different series bytes than GOMAXPROCS=1", procs)
		}
		if !reflect.DeepEqual(stats, refStats) {
			t.Fatalf("GOMAXPROCS=%d produced different ShardStats than GOMAXPROCS=1:\n%+v\n%+v", procs, stats, refStats)
		}
	}
}
