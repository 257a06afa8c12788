package main

import (
	"bytes"
	"math"
	"path/filepath"
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

// TestRunRejectsNonPositiveDurations: a zero or negative -hours would run
// no simulated time, a zero or negative -interval would silently run the
// 60 s default, and an infinite -hours would panic in the event loop, so
// all of them fail by flag name.  Every call also passes -dump-config, so a
// run that wrongly accepts the value writes the scenario and returns instead
// of simulating.
func TestRunRejectsNonPositiveDurations(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "scenario.json")
	for _, tc := range []struct {
		flag            string
		hours, interval float64
	}{
		{"hours", 0, 60},
		{"hours", -1, 60},
		{"hours", math.Inf(1), 60},
		{"interval", 2, 0},
		{"interval", 2, -5},
		{"interval", 2, math.Inf(1)},
	} {
		explicit := map[string]bool{"scenario": true, "dump-config": true, tc.flag: true}
		err := run("1,3", "320,128", "", -1, "policy2", "oracle", "browsing", tc.hours, 1, 0.5, tc.interval,
			0, -1, "", "", "", "", "", -1, "", "figure3", dump, explicit)
		if want := "-" + tc.flag + " must be > 0"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-hours %v -interval %v: got error %v, want %q", tc.hours, tc.interval, err, want)
		}
	}
}

// TestRunRejectsEventWorkersBelowKeep: -1 is the only negative
// -event-workers value with a meaning (keep the scenario's setting), so any
// value below it fails by flag name instead of silently running the
// scenario's own worker count.  -dump-config makes an accepted value write
// the scenario and return instead of simulating.
func TestRunRejectsEventWorkersBelowKeep(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "scenario.json")
	for _, tc := range []struct {
		workers int
		wantErr bool
	}{
		{-7, true},
		{-2, true},
		{-1, false},
		{0, false},
		{4, false},
	} {
		explicit := map[string]bool{"scenario": true, "dump-config": true, "event-workers": true}
		err := run("1,3", "320,128", "", -1, "policy2", "oracle", "browsing", 2, 1, 0.5, 60,
			0, tc.workers, "", "", "", "", "", -1, "", "figure3", dump, explicit)
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), "-event-workers must be >= -1") {
				t.Errorf("-event-workers %d: got error %v, want it rejected by name", tc.workers, err)
			}
		} else if err != nil {
			t.Errorf("-event-workers %d: %v", tc.workers, err)
		}
	}
}
