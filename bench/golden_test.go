package main

import (
	"strconv"
	"strings"
	"testing"
)

const testGoldenDir = "../internal/experiment/testdata/golden"

func TestReadGoldenRealFile(t *testing.T) {
	g, err := readGolden(testGoldenDir, "figure3", "policy2")
	if err != nil {
		t.Fatal(err)
	}
	if g.Scenario != "figure3" || g.Policy != "policy2" || g.Seed != verifySeed || g.Eras == 0 || len(g.SeriesSHA256) != 64 {
		t.Fatalf("unexpected golden header: %+v", g)
	}
	for _, f := range []string{g.SuccessRatio, g.MeanResponseTime} {
		if v, err := strconv.ParseFloat(f, 64); err != nil || gf(v) != f {
			t.Errorf("golden float %q does not round-trip: %v", f, err)
		}
	}
	if _, err := readGolden(testGoldenDir, "figure3", "no-such-policy"); err == nil {
		t.Error("missing golden file read without error")
	}
}

func TestCheckGoldenDetectsDrift(t *testing.T) {
	w, _ := workloadByName("megaclients")
	g, err := readGolden(testGoldenDir, "megaclients", "policy2")
	if err != nil {
		t.Fatal(err)
	}
	sr, _ := strconv.ParseFloat(g.SuccessRatio, 64)
	rt, _ := strconv.ParseFloat(g.MeanResponseTime, 64)
	op := &opResult{Runs: []runSummary{{Scenario: "megaclients", Policy: "policy2", Eras: g.Eras,
		SeriesSHA256: g.SeriesSHA256, SuccessRatio: sr, MeanResponseTime: rt}}}
	if err := checkGolden(testGoldenDir, w, op); err != nil {
		t.Fatalf("matching op rejected: %v", err)
	}
	op.Runs[0].SeriesSHA256 = strings.Repeat("0", 64)
	if err := checkGolden(testGoldenDir, w, op); err == nil {
		t.Fatal("series hash drift not detected")
	}
}
