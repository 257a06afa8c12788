package main

import (
	"repro/internal/experiment"
	"repro/internal/simclock"
)

// goldenHorizon and verifySeed are the horizon and seed the golden files
// pin; the verification op runs at both.
const (
	goldenHorizon = 30 * simclock.Minute
	verifySeed    = 42
)

// scenarioRun is one closed-loop simulation inside an op.
type scenarioRun struct {
	scenario, policy string
	// golden marks a run pinned by internal/experiment/testdata/golden at
	// verifySeed and goldenHorizon.
	golden bool
}

// workload is one benchmark workload: the scenario runs that make up one op,
// each simulated for horizon.  BENCHMARK.json gives the reason each workload
// was chosen.
type workload struct {
	name    string
	runs    []scenarioRun
	horizon simclock.Duration
}

// paperFigures reports whether the workload is the paper's own experiment,
// whose ops additionally check the Section VI-B claims.
func (w workload) paperFigures() bool { return w.name == "paper-figures" }

func paperRuns() []scenarioRun {
	var runs []scenarioRun
	for _, fig := range []string{"figure3", "figure4"} {
		for _, np := range experiment.Policies() {
			runs = append(runs, scenarioRun{scenario: fig, policy: np.Key, golden: true})
		}
	}
	return runs
}

// workloads are the benchmark's workloads.  Each stresses a different layer
// of the simulator, so a change to one layer moves one workload and leaves a
// bypassing one as the control (the README's layer table has the pairings).
// The horizons keep one op at 1.5-3 s of host time on two cores, so a 15 s
// run holds at least six ops; the paper's figures need 30 minutes for every
// seed to show policy 2 converging.
var workloads = []workload{
	// The paper's own experiment; the only serial-engine path.
	{name: "paper-figures", runs: paperRuns(), horizon: 30 * simclock.Minute},
	// The scale path: epoch barriers, cohort splits, batched requests.
	{name: "megaclients", horizon: 15 * simclock.Minute,
		runs: []scenarioRun{{scenario: "megaclients", policy: "policy2", golden: true}}},
	// The same region and engine with one request per browser interaction.
	{name: "megaregion-browsers", horizon: 15 * simclock.Minute,
		runs: []scenarioRun{{scenario: "megaregion-eventloop", policy: "policy2"}}},
	// The global plane: director routing and cross-lane mailbox traffic.
	{name: "global-megaclients", horizon: 15 * simclock.Minute,
		runs: []scenarioRun{{scenario: "global-megaclients", policy: "policy2", golden: true}}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
