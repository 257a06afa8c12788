package experiment

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gslb"
	"repro/internal/simclock"
)

// The global-traffic-director suite: the global-* scenarios route traffic
// between regions through a gslb.Director, and their output must be
// byte-identical for EventWorkers {0, 1, 4, GOMAXPROCS} — 0 is promoted to
// the inline epochal run by acm.Config, so the whole range shares one
// engine and one byte stream.  The goldens additionally pin the per-region
// routed counts and the health-transition log, which is where the
// drain/failover/failback story is directly assertable.

// globalScenarioNames lists every registered global-* scenario.
func globalScenarioNames() []string {
	return []string{"global-failover", "global-leastload", "global-diurnal", "global-latency", "global-cablecut"}
}

// TestGlobalScenarioSmoke: cheap always-on canary — every global scenario
// builds, runs a few minutes, serves traffic and completes control eras.
func TestGlobalScenarioSmoke(t *testing.T) {
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range globalScenarioNames() {
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
			if res.GSLBRouted == nil {
				t.Fatal("no GSLB routed counts recorded")
			}
			total := uint64(0)
			for _, n := range res.GSLBRouted {
				total += n
			}
			if total == 0 {
				t.Fatal("director routed no requests")
			}
			if res.SuccessRatio < 0.5 {
				t.Fatalf("success ratio %.3f, want >= 0.5", res.SuccessRatio)
			}
		})
	}
}

// TestGlobalGSLBWorkersEquivalence is the GSLB determinism contract:
// byte-identical output (summary, routed counts, transition log and the
// SHA-256 of every raw series) across EventWorkers 0, 1, 4 and GOMAXPROCS,
// for every global scenario.  The CI multicore-determinism job replays it
// with GOMAXPROCS=4 under -race, where the shard loops genuinely run on
// distinct cores.
func TestGlobalGSLBWorkersEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every global scenario once per worker count")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{0, 1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	for _, name := range globalScenarioNames() {
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

// TestGlobalGSLBPolicyEquivalence re-runs one scenario with each routing
// policy swapped in, at EventWorkers 1 vs GOMAXPROCS: the equivalence must
// hold for every policy, not just the ones the scenarios ship with (the
// round-robin cursor and the weighted RNG draws are the lane-local state the
// contract depends on).
func TestGlobalGSLBPolicyEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one scenario per routing policy per worker count")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range gslb.PolicyKinds() {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			run := func(workers int) []byte {
				sc, err := BuildScenario("global-leastload", 7)
				if err != nil {
					t.Fatal(err)
				}
				sc.Horizon = 10 * simclock.Minute
				sc.EventWorkers = workers
				sc.GSLB.Policy = pol
				res, err := Run(sc, np)
				if err != nil {
					t.Fatal(err)
				}
				return eventLoopFingerprint(t, res)
			}
			ref := run(1)
			if got := run(runtime.GOMAXPROCS(0)); !bytes.Equal(got, ref) {
				t.Fatalf("policy %s diverged between EventWorkers 1 and GOMAXPROCS", pol)
			}
		})
	}
}

// TestGlobalFailoverDrainAndFailback asserts the failover story end to end
// on the real deployment: the faulted region drains after the outage,
// traffic fails over to the next preference, the region recovers and
// traffic fails back — visible in both the transition log and the
// per-region routed counts.
func TestGlobalFailoverDrainAndFailback(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 30-minute failover simulation")
	}
	sc, err := BuildScenario("global-failover", 42)
	if err != nil {
		t.Fatal(err)
	}
	sc.Horizon = goldenHorizon
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, np)
	if err != nil {
		t.Fatal(err)
	}

	// The transition log must show the full drain -> failback cycle for the
	// faulted region, in order.
	wantOrder := []string{"healthy->degraded", "degraded->drained", "drained->recovering", "recovering->healthy"}
	var r1 []string
	for _, tr := range res.GSLBTransitions {
		if strings.Contains(tr, "region1 ") {
			r1 = append(r1, tr)
		}
	}
	if len(r1) != len(wantOrder) {
		t.Fatalf("region1 transitions = %v, want the 4-step drain/failback cycle", r1)
	}
	for i, want := range wantOrder {
		if !strings.Contains(r1[i], want) {
			t.Fatalf("region1 transition %d = %q, want %q", i, r1[i], want)
		}
	}

	// Routed counts: region1 (preferred) carries the bulk, region2 carries
	// the failover window, region3 (last preference) never serves.
	if res.GSLBRouted["region2"] == 0 {
		t.Fatal("backup region2 received no failover traffic")
	}
	if res.GSLBRouted["region3"] != 0 {
		t.Fatalf("region3 received %d requests; failover should stop at region2", res.GSLBRouted["region3"])
	}
	if res.GSLBRouted["region1"] <= res.GSLBRouted["region2"] {
		t.Fatalf("preferred region1 (%d) should out-serve the backup (%d) over the full run",
			res.GSLBRouted["region1"], res.GSLBRouted["region2"])
	}

	// Even across a full regional blackout the deployment keeps serving:
	// the drops are confined to the window before the drain debounce fires.
	// (The exact request conservation — every routed request completes
	// exactly once — is the gslb package's property test.)
	if res.SuccessRatio < 0.8 {
		t.Fatalf("success ratio %.3f after failover, want >= 0.8", res.SuccessRatio)
	}
}

// TestGlobalCableCutShift asserts the passive-learning story end to end: the
// cable cut at minute 12 doubles the americas-to-region1 RTT without telling
// the director, so the learned americas:region1 estimate must climb toward
// the new ground truth and region1 must receive strictly fewer routed
// requests in a window after the fault than in an equal window before it.
func TestGlobalCableCutShift(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 30-minute cable-cut simulation")
	}
	sc, err := BuildScenario("global-cablecut", 42)
	if err != nil {
		t.Fatal(err)
	}
	sc.Horizon = goldenHorizon
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, np)
	if err != nil {
		t.Fatal(err)
	}

	// The learned estimate tracks the doubled ground truth (80 -> 160 ms):
	// by the end of the run the EWMA must have crossed well past the seeded
	// value, and the pre-fault estimate must still sit near the seed.
	rtt := res.Recorder.Series("gslb_rtt", "americas:region1")
	if rtt.Len() == 0 {
		t.Fatal("no gslb_rtt series recorded for americas:region1")
	}
	fault := (12 * simclock.Minute).Seconds()
	if pre := rtt.At(fault); pre > 100 {
		t.Fatalf("pre-fault americas:region1 estimate = %.1f ms, want near the 80 ms seed", pre)
	}
	if end := rtt.Points[rtt.Len()-1].V; end < 130 {
		t.Fatalf("final americas:region1 estimate = %.1f ms, want > 130 (learning the 160 ms truth)", end)
	}

	// Routed-count shift: equal 6-minute windows, leaving 6 minutes after
	// the cut for the estimator to converge.  gslb_routed is cumulative, so
	// window increments are differences on the control-era grid.
	routed := res.Recorder.Series("gslb_routed", "region1")
	if routed.Len() == 0 {
		t.Fatal("no gslb_routed series recorded for region1")
	}
	win := (6 * simclock.Minute).Seconds()
	before := routed.At(fault) - routed.At(fault-win)
	after := routed.Points[routed.Len()-1].V - routed.At(rtt.Points[rtt.Len()-1].T-win)
	if after >= before {
		t.Fatalf("region1 routed increment after the cut (%.0f) should be strictly below the pre-cut window (%.0f)", after, before)
	}
}

// TestGoldenGlobalScenarios byte-pins every global scenario under policy2 —
// summary, routed counts, transition log and the SHA-256 of the raw series
// (which include the gslb_health / gslb_routed sets).  Regenerate with:
//
//	go test ./internal/experiment -run TestGoldenGlobal -update
func TestGoldenGlobalScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three 30-minute global simulations")
	}
	np, err := PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range globalScenarioNames() {
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

// TestGSLBScenarioJSONRoundTrip: the global scenarios are plain data and
// must survive the config-file round trip (cmd/acmsim -dump-config /
// -config), including the nested gslb.Config, rate specs and fault
// schedule.
func TestGSLBScenarioJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range globalScenarioNames() {
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
		if back.GSLB.Policy != sc.GSLB.Policy || back.GlobalClients != sc.GlobalClients ||
			len(back.Arrivals) != len(sc.Arrivals) || len(back.Faults) != len(sc.Faults) ||
			len(back.LinkFaults) != len(sc.LinkFaults) || len(back.GSLB.RTT) != len(sc.GSLB.RTT) {
			t.Fatalf("%s: round trip lost GSLB fields: %+v", name, back)
		}
		for stream, row := range sc.GSLB.RTT {
			got := back.GSLB.RTT[stream]
			if len(got) != len(row) {
				t.Fatalf("%s: round trip lost RTT row %q: %v", name, stream, got)
			}
			for i := range row {
				if got[i] != row[i] {
					t.Fatalf("%s: RTT row %q changed: %v -> %v", name, stream, row, got)
				}
			}
		}
	}
}
