package main

import (
	"bytes"
	"flag"
	"math"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/simclock"
)

// badHorizons are -horizon values no run may accept: zero or negative would
// silently run the scenario's own horizon, NaN a zero-length simulation, and
// +Inf would panic in the event loop.
var badHorizons = []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)}

// TestRunRejectsBadHorizon: every figure, summary and ablation run checks
// -horizon by name before it builds a scenario.
func TestRunRejectsBadHorizon(t *testing.T) {
	for _, h := range badHorizons {
		err := run(3, "policy2", false, "", 1, h, "", 0, -1, false, 1)
		if err == nil || !strings.Contains(err.Error(), "-horizon must be > 0") {
			t.Errorf("-figure 3 -horizon %v: got error %v, want a -horizon error", h, err)
		}
	}
}

// TestRunMatrixRejectsBadHorizon: the -scenarios sweep path checks -horizon
// the same way instead of falling back to each scenario's own horizon.
func TestRunMatrixRejectsBadHorizon(t *testing.T) {
	for _, h := range badHorizons {
		sweep := cli.RegisterSweepFlags(flag.NewFlagSet("figures", flag.ContinueOnError), 1, "")
		*sweep.Scenarios = "figure3"
		err := runMatrix(sweep, 1, h)
		if err == nil || !strings.Contains(err.Error(), "-horizon must be > 0") {
			t.Errorf("-scenarios figure3 -horizon %v: got error %v, want a -horizon error", h, err)
		}
	}
}

// TestAblationsPrintTheSweepTable runs every sweep-shaped ablation end to
// end and checks its table: a title, the sweep table's header and one row
// per job, named by scenario and policy.  A k row and a gossip row must
// then read exactly as a direct Run of the same job does, so the ablation
// path adds nothing to a run.
func TestAblationsPrintTheSweepTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 22 short simulations and trains the F2PM models")
	}
	const seed = 42
	horizon := 15 * simclock.Minute
	header := strings.SplitN(experiment.SweepTable(nil), "\n", 2)[0]
	tables := map[string][]string{}
	for _, c := range []struct {
		kind string
		rows [][2]string // scenario, policy
	}{
		{"beta", [][2]string{{"figure3-beta0.10", "policy2"}, {"figure3-beta0.25", "policy2"}, {"figure3-beta0.50", "policy2"},
			{"figure3-beta0.75", "policy2"}, {"figure3-beta1.00", "policy2"}}},
		{"k", [][2]string{{"figure3-k0.50", "policy3-k0.50"}, {"figure3-k0.75", "policy3-k0.75"}, {"figure3-k1.00", "policy3-k1.00"},
			{"figure3-k1.25", "policy3-k1.25"}}},
		{"baseline", [][2]string{{"figure3", "policy2"}, {"figure3", "uniform"}, {"figure3", "static"}}},
		{"homogeneous", [][2]string{{"homogeneous", "policy1"}, {"homogeneous", "policy2"}, {"homogeneous", "policy3"}}},
		{"predictor", [][2]string{{"figure3-oracle", "policy2"}, {"figure3-ml", "policy2"}}},
		{"gossip", [][2]string{{"global-gossip-gossip5s", "policy2"}, {"global-gossip-gossip10s", "policy2"},
			{"global-gossip-gossip20s", "policy2"}, {"global-gossip-gossip40s", "policy2"}}},
	} {
		var out bytes.Buffer
		if err := runAblation(&out, c.kind, seed, horizon, experiment.Options{Workers: 2}); err != nil {
			t.Fatalf("-ablation %s: %v", c.kind, err)
		}
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		if len(lines) != 2+len(c.rows) || lines[1] != header {
			t.Fatalf("-ablation %s printed %d lines, want a title, the sweep header and %d rows:\n%s", c.kind, len(lines), len(c.rows), out.String())
		}
		for i, want := range c.rows {
			if f := strings.Fields(lines[2+i]); f[0] != want[0] || f[1] != want[1] || strings.Contains(lines[2+i], "ERROR") {
				t.Errorf("-ablation %s row %d = %q, want %s/%s", c.kind, i, lines[2+i], want[0], want[1])
			}
		}
		tables[c.kind] = lines
	}

	build := func(name string) experiment.Scenario {
		sc, err := experiment.BuildScenario(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		sc.Horizon = horizon
		return sc
	}
	policy2, _ := experiment.PolicyByKey("policy2")
	gossipJobs, err := experiment.GossipIntervalJobs(build("global-gossip"), policy2, []simclock.Duration{20 * simclock.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		row  int
		job  experiment.Job
	}{
		{"k", 2, experiment.ExplorationKJobs(build("figure3"), []float64{1.0})[0]},
		{"gossip", 2, gossipJobs[0]},
	} {
		res, err := experiment.Run(c.job.Scenario, c.job.Policy)
		if err != nil {
			t.Fatal(err)
		}
		row := experiment.RowFromJobResult(experiment.JobResult{Job: c.job, Result: res})
		want := strings.Split(experiment.SweepTable([]experiment.SweepRow{row}), "\n")[1]
		if got := tables[c.kind][2+c.row]; got != want {
			t.Errorf("-ablation %s row %d differs from a direct run of its job\n got: %s\nwant: %s", c.kind, c.row, got, want)
		}
	}
}
