package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/simclock"
)

// TestPrintReportRegionOrder pins the report's per-region controller
// counters to deployment order.  The counters are held in a map, whose
// iteration order varies from range to range, so the report is rendered
// several times to give such nondeterminism a chance to show.
func TestPrintReportRegionOrder(t *testing.T) {
	sc, err := experiment.BuildScenario("figure4", 1)
	if err != nil {
		t.Fatal(err)
	}
	np, err := experiment.PolicyByKey("policy2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiment.NewBackend(sc, np)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(2 * simclock.Minute); err != nil {
		t.Fatal(err)
	}
	want := b.Results().RegionNames
	if len(want) < 3 {
		t.Fatalf("figure4 deploys %d regions, want 3", len(want))
	}
	for i := 0; i < 10; i++ {
		var out bytes.Buffer
		printReport(&out, b)
		if got := controllerCounterRegions(out.String()); !reflect.DeepEqual(got, want) {
			t.Fatalf("controller counters printed for %q, want deployment order %q", got, want)
		}
	}
}

// controllerCounterRegions returns the region names of the report's
// "per-region controller counters" block, in printed order.
func controllerCounterRegions(report string) []string {
	var names []string
	in := false
	for _, line := range strings.Split(report, "\n") {
		switch {
		case line == "per-region controller counters:":
			in = true
		case in && strings.HasPrefix(line, "   ") && strings.Contains(line, ": proactive="):
			names = append(names, strings.TrimSpace(line[:strings.Index(line, ":")]))
		case in:
			return names
		}
	}
	return names
}
