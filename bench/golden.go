package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// golden is the part of a golden file (internal/experiment/testdata/golden)
// the benchmark verifies.  Floats are stored as exact strings.
type golden struct {
	Scenario         string `json:"scenario"`
	Policy           string `json:"policy"`
	Seed             uint64 `json:"seed"`
	Eras             uint64 `json:"eras"`
	SuccessRatio     string `json:"successRatio"`
	MeanResponseTime string `json:"meanResponseTime"`
	SeriesSHA256     string `json:"seriesSHA256"`
}

// readGolden reads the golden file of one scenario run.  It never writes.
func readGolden(dir, scenario, policy string) (golden, error) {
	var g golden
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s-%s.json", scenario, policy)))
	if err != nil {
		return g, fmt.Errorf("reading golden: %w", err)
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("parsing golden %s-%s: %w", scenario, policy, err)
	}
	return g, nil
}

// gf formats a float exactly as the golden files do.
func gf(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkGolden compares a seed-42 op with the golden file of every pinned run.
func checkGolden(dir string, w workload, op *opResult) error {
	for i, r := range w.runs {
		if !r.golden {
			continue
		}
		g, err := readGolden(dir, r.scenario, r.policy)
		if err != nil {
			return err
		}
		s := op.Runs[i]
		got := golden{Scenario: g.Scenario, Policy: g.Policy, Seed: g.Seed, Eras: s.Eras,
			SuccessRatio: gf(s.SuccessRatio), MeanResponseTime: gf(s.MeanResponseTime), SeriesSHA256: s.SeriesSHA256}
		if got != g {
			return fmt.Errorf("%s/%s differs from its golden:\n got  %+v\n want %+v", r.scenario, r.policy, got, g)
		}
	}
	return nil
}
