package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/simclock"
)

// The gossip health-plane suite: the global-gossip/partition/staleview
// scenarios replace the central Director with replicated directors that only
// share health through simulated push-pull gossip, and every lane routes on
// its home replica's eventually-consistent view.  The plane runs entirely on
// the control timeline, so its output must be byte-identical for
// EventWorkers {0, 1, 4, GOMAXPROCS} exactly like the central scenarios.

// gossipScenarioNames lists every registered gossip scenario.
func gossipScenarioNames() []string {
	return []string{"global-gossip", "global-partition", "global-staleview"}
}

// TestGlobalGossipScenarioSmoke: cheap always-on canary — every gossip
// scenario builds, runs a few minutes, serves traffic, gossips and completes
// control eras.
func TestGlobalGossipScenarioSmoke(t *testing.T) {
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range gossipScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := BuildScenario(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			sc.Horizon = 5 * simclock.Minute
			res, err := Run(sc, np)
			if err != nil {
				t.Fatal(err)
			}
			if res.Eras == 0 {
				t.Fatal("no control eras completed")
			}
			if res.Gossip == nil {
				t.Fatal("no gossip stats recorded")
			}
			if res.Gossip.Replicas != 3 || res.Gossip.Rounds == 0 || res.Gossip.Sent == 0 {
				t.Fatalf("gossip plane idle: %+v", res.Gossip)
			}
			total := uint64(0)
			for _, n := range res.GSLBRouted {
				total += n
			}
			if total == 0 {
				t.Fatal("replicas routed no requests")
			}
			if res.SuccessRatio < 0.5 {
				t.Fatalf("success ratio %.3f, want >= 0.5", res.SuccessRatio)
			}
			if res.Recorder.Series("gossip_convergence", "max_divergence").Len() == 0 {
				t.Fatal("no gossip_convergence series recorded")
			}
		})
	}
}

// TestGlobalGossipWorkersEquivalence is the gossip determinism contract:
// byte-identical output (summary, routed counts, transition log, gossip
// counters and the SHA-256 of every raw series, gossip_convergence included)
// across EventWorkers 0, 1, 4 and GOMAXPROCS, for every gossip scenario.
// The CI multicore-determinism job replays it with GOMAXPROCS=4 under -race.
func TestGlobalGossipWorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every gossip scenario once per worker count")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{0, 1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	for _, name := range gossipScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func(workers int) []byte {
				sc, err := BuildScenario(name, 42)
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
			ref := run(counts[0])
			for _, workers := range counts[1:] {
				if got := run(workers); !bytes.Equal(got, ref) {
					t.Fatalf("EventWorkers=%d diverged from EventWorkers=%d\n--- got ---\n%s\n--- want ---\n%s",
						workers, counts[0], got, ref)
				}
			}
		})
	}
}

// TestGlobalPartitionSplitBrain asserts the split-brain story end to end on
// the real deployment: while replica 2 is partitioned away and region1
// blacks out, the majority side drains region1 and fails over, but the lane
// homed to the isolated replica keeps routing into the blackout on its
// frozen view — until the heal propagates the drain.
func TestGlobalPartitionSplitBrain(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 30-minute partition simulation")
	}
	sc, err := BuildScenario("global-partition", 42)
	if err != nil {
		t.Fatal(err)
	}
	sc.Horizon = goldenHorizon
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(sc, np)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Run(sc.Horizon); err != nil {
		t.Fatal(err)
	}

	// The authoritative (owner-side) transition log still shows the drain.
	var drained bool
	for _, tr := range mgr.GSLBTransitions() {
		if strings.Contains(tr, "region1 ") && strings.Contains(tr, "degraded->drained") {
			drained = true
		}
	}
	if !drained {
		t.Fatal("region1 never drained on the owner's view")
	}

	// Routed counts for the blacked-out region1: the majority side drains it
	// within two probes of minute 10, so while the partition holds (to
	// minute 18) only the lanes homed to the isolated replica keep sending
	// to it, and its cumulative routed count keeps climbing.  Once the heal
	// pulls the drain across, nothing routes to region1 until it recovers
	// at minute 20.
	routed := mgr.Recorder().Series("gslb_routed", "region1")
	minute := simclock.Minute.Seconds()
	if split := routed.At(18*minute) - routed.At(12*minute); split <= 0 {
		t.Fatalf("split-brain not visible: region1 routed %.0f requests between minutes 12 and 18, want > 0", split)
	}
	if healed := routed.At(20*minute) - routed.At(19*minute); healed != 0 {
		t.Fatalf("region1 routed %.0f requests between minutes 19 and 20, after the heal, want 0", healed)
	}

	// The divergence series ramps while the partition holds region1's drain
	// away from replica 2, and collapses after the heal.
	div := mgr.Recorder().Series("gossip_convergence", "max_divergence")
	if div.Len() == 0 {
		t.Fatal("no gossip_convergence series recorded")
	}
	peak := 0.0
	for _, v := range div.Values() {
		if v > peak {
			peak = v
		}
	}
	if peak < 10 {
		t.Fatalf("peak view divergence %.0f during a 10-minute partition, want >= 10 probe generations", peak)
	}
	if end := div.Points[div.Len()-1].V; end > 2 {
		t.Fatalf("final view divergence %.0f, want near 0 after the heal", end)
	}

	// Cross-cut gossip messages were dropped, and the plane kept converging
	// afterwards.
	st := mgr.GossipStats()
	if st == nil || st.Dropped == 0 {
		t.Fatalf("expected partition drops in the gossip stats: %+v", st)
	}
}

// TestGoldenGlobalGossipScenarios byte-pins every gossip scenario under
// policy2 — summary, routed counts, transition log, gossip counters and the
// SHA-256 of the raw series (which include gossip_convergence).  Regenerate
// with:
//
//	go test ./internal/experiment -run TestGoldenGlobalGossip -update
func TestGoldenGlobalGossipScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three 30-minute gossip simulations")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range gossipScenarioNames() {
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

// TestGossipScenarioJSONRoundTrip: the gossip scenarios must survive the
// config-file round trip including the gossip tuning fields and the
// partition-fault schedule.
func TestGossipScenarioJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range gossipScenarioNames() {
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
		if back.GossipReplicas != sc.GossipReplicas || back.GossipInterval != sc.GossipInterval ||
			back.GossipFanout != sc.GossipFanout || back.GossipDelay != sc.GossipDelay ||
			back.GossipLoss != sc.GossipLoss || len(back.PartitionFaults) != len(sc.PartitionFaults) {
			t.Fatalf("%s: round trip lost gossip fields: %+v", name, back)
		}
		for i, f := range sc.PartitionFaults {
			g := back.PartitionFaults[i]
			if g.At != f.At || g.Duration != f.Duration || len(g.Replicas) != len(f.Replicas) {
				t.Fatalf("%s: partition fault %d changed: %+v -> %+v", name, i, f, g)
			}
		}
	}
}

// TestOneReplicaIsCentralDirector: a health plane of one replica is the
// central director.  Setting GossipReplicas = 1 on central-director
// scenarios must reproduce their committed goldens byte for byte — no
// gossip block, no gossip_convergence set inside the series hash, and the
// same routing and summary floats.  global-latency covers the passive
// latency learner, whose observations flush into the single replica.
func TestOneReplicaIsCentralDirector(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three 30-minute global simulations")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"global-failover", "global-latency", "global-megaclients"} {
		t.Run(name, func(t *testing.T) {
			sc, err := BuildScenario(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			if sc.GossipReplicas != 0 {
				t.Fatalf("%s already sets GossipReplicas = %d", name, sc.GossipReplicas)
			}
			sc.GossipReplicas = 1
			sc.Horizon = goldenHorizon
			res, err := Run(sc, np)
			if err != nil {
				t.Fatal(err)
			}
			got := eventLoopFingerprint(t, res)
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+"-policy2.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("one replica diverged from the central-director golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGossipIntervalSweepNeedsReplicas: the sweep varies the gossip round
// period, which one replica never uses, so it rejects such a scenario.
func TestGossipIntervalSweepNeedsReplicas(t *testing.T) {
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := BuildScenario("global-gossip", 42)
	if err != nil {
		t.Fatal(err)
	}
	sc.GossipReplicas = 1
	sc.Horizon = simclock.Minute
	_, err = GossipIntervalSweep(sc, np, []simclock.Duration{5 * simclock.Second})
	if err == nil || !strings.Contains(err.Error(), "GossipReplicas >= 2") {
		t.Fatalf("sweep over a one-replica scenario: got error %v, want one asking for GossipReplicas >= 2", err)
	}
}
