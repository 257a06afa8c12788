// Package cli holds the flag surface the commands share: the matrix-sweep
// flag set of cmd/acmsim and cmd/figures (-scenarios/-policies/-betas/-reps/
// -workers and the sweep output flags), the -rtt round-trip-matrix parser
// and the check every numeric flag that must be positive goes through.  One
// definition means the CLIs cannot drift apart in names, defaults or error
// text.
package cli

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/experiment"
)

// RequirePositive rejects a zero, negative, infinite or NaN value of a
// numeric flag by name: zero or NaN would run no simulated time or fall back
// to a default, and an infinite one would never end.
func RequirePositive(flagName string, v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return fmt.Errorf("-%s must be > 0 and finite, got %v", flagName, v)
	}
	return nil
}

// SweepFlags is the matrix-sweep flag set after registration; values are
// live after fs.Parse.
type SweepFlags struct {
	Scenarios *string
	Policies  *string
	Betas     *string
	Reps      *int
	Workers   *int
	CSV       *string
	JSON      *string
	Journal   *string
}

// RegisterSweepFlags installs the shared sweep flags on fs.  The -workers
// default and usage differ between the CLIs (figures uses it for figure runs
// too), so the caller supplies them.
func RegisterSweepFlags(fs *flag.FlagSet, workersDefault int, workersUsage string) *SweepFlags {
	return &SweepFlags{
		Scenarios: fs.String("scenarios", "", "comma-separated registered scenarios: run the sweep matrix scenarios x policies x betas x reps instead of a single deployment"),
		Policies:  fs.String("policies", "", "comma-separated policy keys for the sweep (the paper's three policies when empty)"),
		Betas:     fs.String("betas", "", "comma-separated beta overrides for the sweep (each scenario's own beta when empty)"),
		Reps:      fs.Int("reps", 1, "independent replications per sweep cell (seeds derived per replication)"),
		Workers:   fs.Int("workers", workersDefault, workersUsage),
		CSV:       fs.String("sweep-csv", "", "write the sweep summary rows as CSV to this file"),
		JSON:      fs.String("sweep-json", "", "write the sweep summary rows as JSON to this file"),
		Journal:   fs.String("journal", "", "checkpoint completed sweep jobs to this file; re-running with the same matrix resumes from the missing jobs only"),
	}
}

// Active reports whether the sweep mode was selected (-scenarios set).
func (s *SweepFlags) Active() bool { return *s.Scenarios != "" }

// SweepOnlyFlagNames lists the registered flags that only make sense in
// sweep mode, for single-run rejection.  workersSweepOnly is true for CLIs
// where -workers has no single-run meaning (acmsim).
func SweepOnlyFlagNames(workersSweepOnly bool) []string {
	names := []string{"sweep-csv", "sweep-json", "journal", "betas", "reps", "policies"}
	if workersSweepOnly {
		names = append(names, "workers")
	}
	return names
}

// Matrix assembles the experiment.Matrix from the parsed sweep flags; the
// caller sets the Horizon itself (the two CLIs apply -hours/-horizon
// differently).
func (s *SweepFlags) Matrix(baseSeed uint64) (experiment.Matrix, error) {
	m := experiment.Matrix{
		Scenarios:    experiment.ParseList(*s.Scenarios),
		Policies:     experiment.ParseList(*s.Policies),
		Replications: *s.Reps,
		BaseSeed:     baseSeed,
	}
	if *s.Betas != "" {
		bs, err := experiment.ParseFloatList(*s.Betas)
		if err != nil {
			return experiment.Matrix{}, err
		}
		m.Betas = bs
	}
	return m, nil
}

// Options returns the parallel-runner options the sweep flags select.
func (s *SweepFlags) Options() experiment.Options {
	return experiment.Options{Workers: *s.Workers}
}

// ParseRTT turns "global=60,120;americas=80,140" into the per-stream
// round-trip matrix, one millisecond entry per deployed region in deployment
// order.  Row lengths are checked here so a mismatch names the stream —
// with the -rtt flag prefix — instead of surfacing as a generic gslb
// validation error.
func ParseRTT(spec string, regions int) (map[string][]float64, error) {
	rtt := map[string][]float64{}
	for _, rowSpec := range strings.Split(spec, ";") {
		rowSpec = strings.TrimSpace(rowSpec)
		if rowSpec == "" {
			continue
		}
		stream, list, ok := strings.Cut(rowSpec, "=")
		stream = strings.TrimSpace(stream)
		if !ok || stream == "" {
			return nil, fmt.Errorf("-rtt: row %q is not stream=ms1,ms2,...", rowSpec)
		}
		if _, dup := rtt[stream]; dup {
			return nil, fmt.Errorf("-rtt: stream %q listed twice", stream)
		}
		entries := strings.Split(list, ",")
		if len(entries) != regions {
			return nil, fmt.Errorf("-rtt: stream %q has %d entries, want one per deployed region (%d)", stream, len(entries), regions)
		}
		row := make([]float64, len(entries))
		for i, e := range entries {
			ms, err := strconv.ParseFloat(strings.TrimSpace(e), 64)
			if err != nil {
				return nil, fmt.Errorf("-rtt: stream %q entry %d: %v", stream, i, err)
			}
			row[i] = ms
		}
		rtt[stream] = row
	}
	if len(rtt) == 0 {
		return nil, fmt.Errorf("-rtt: no rows in %q", spec)
	}
	return rtt, nil
}
