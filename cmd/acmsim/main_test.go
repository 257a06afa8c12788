package main

import (
	"bytes"
	"math"
	"os"
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

// TestRunRejectsNaNFractions: NaN passes every range comparison, so a NaN
// -tracer-fraction once simulated a cohort of no clients, a NaN
// -trace-sample was only caught a layer later and a NaN -beta ran to a NaN
// RMTTF; all three fail by name.  -dump-config makes an accepted value
// write the scenario and return.
func TestRunRejectsNaNFractions(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "scenario.json")
	for _, flag := range []string{"tracer-fraction", "trace-sample"} {
		tracerFraction, traceSample := -1.0, -1.0
		if flag == "tracer-fraction" {
			tracerFraction = math.NaN()
		} else {
			traceSample = math.NaN()
		}
		explicit := map[string]bool{"scenario": true, "dump-config": true, flag: true}
		err := run("1,3", "320,128", "", tracerFraction, "policy2", "oracle", "browsing", 0.01, 1, 0.5, 60,
			0, -1, "", "", "", "", "", traceSample, "", "megaclients", dump, explicit)
		if want := "-" + flag + " must be in [0, 1], got NaN"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-%s NaN: got error %v, want %q", flag, err, want)
		}
	}
	explicit := map[string]bool{"scenario": true, "dump-config": true, "beta": true}
	err := run("1,3", "320,128", "", -1, "policy2", "oracle", "browsing", 0.01, 1, math.NaN(), 60,
		0, -1, "", "", "", "", "", -1, "", "figure3", dump, explicit)
	if want := "beta NaN"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("-beta NaN: got error %v, want %q", err, want)
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

// TestRunRejectsOutOfDomainConfig: a scenario file with Clients -1 once
// panicked in the population constructor (exit 2), one with BaseServiceMs
// -5 ran to a meaningless report, and one with an instance type of no
// memory or no thread budget failed every VM on its first leak; all are
// rejected by field path when the file loads.  -dump-config makes a wrongly accepted file
// write the scenario and return instead of simulating.
func TestRunRejectsOutOfDomainConfig(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		region, want string
	}{
		{`{"Region":{"Name":"r","Type":{"Name":"m3.medium","MemoryMB":3750,"BaseServiceMs":40,"MaxThreads":2048},"InitialActive":1},"Clients":-1}`,
			"experiment: Regions[0].Clients must be >= 0, got -1"},
		{`{"Region":{"Name":"r","Type":{"Name":"m3.medium","MemoryMB":3750,"BaseServiceMs":-5,"MaxThreads":2048},"InitialActive":1},"Clients":8}`,
			"experiment: Regions[0].Region.Type.BaseServiceMs must be >= 0, got -5"},
		// No memory or no thread budget: the VMs would fail on their first
		// leak, since 0 selects no default.
		{`{"Region":{"Name":"r","Type":{"Name":"m3.medium","BaseServiceMs":40,"MaxThreads":2048},"InitialActive":1},"Clients":8}`,
			"experiment: Regions[0].Region.Type.MemoryMB must be > 0, got 0"},
		{`{"Region":{"Name":"r","Type":{"Name":"m3.medium","MemoryMB":3750,"BaseServiceMs":40},"InitialActive":1},"Clients":8}`,
			"experiment: Regions[0].Region.Type.MaxThreads must be > 0, got 0"},
	} {
		path := filepath.Join(dir, "scenario.json")
		if err := os.WriteFile(path, []byte(`{"Name":"bad","Regions":[`+tc.region+`]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		explicit := map[string]bool{"config": true, "dump-config": true}
		err := run("1,3", "320,128", "", -1, "policy2", "oracle", "browsing", 2, 1, 0.5, 60,
			0, -1, "", "", "", "", "", -1, path, "", filepath.Join(dir, "dump.json"), explicit)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("got error %v, want %q", err, tc.want)
		}
	}
}
