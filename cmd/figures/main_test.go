package main

import (
	"flag"
	"math"
	"strings"
	"testing"

	"repro/internal/cli"
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
