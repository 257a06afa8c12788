package experiment

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Sweep output: a sweep produces one flat summary row per job, written
// as CSV (for spreadsheets and plotting scripts) or JSON (for downstream
// tooling).  Rows carry only the summary metrics, not the raw series — a
// sweep of hundreds of jobs must stay cheap to persist, which is also what
// makes the checkpoint journal (journal.go) practical.

// SweepRow is the flat summary of one sweep job.
type SweepRow struct {
	// Index is the job's position in the job list.
	Index int `json:"index"`
	// Scenario is the expanded scenario name (beta/rep suffixes included).
	Scenario string `json:"scenario"`
	// Policy is the policy key.
	Policy string `json:"policy"`
	// Seed is the job's derived seed.
	Seed uint64 `json:"seed"`
	// Beta is the smoothing factor the job ran with.
	Beta float64 `json:"beta"`
	// Rep is the replication index.
	Rep int `json:"rep"`

	Converged bool `json:"converged"`
	// RelativeSpread is the steady-state RMTTF spread.
	RelativeSpread float64 `json:"relativeSpread"`
	// ConvergenceTime is in seconds; -1 when the run never converged (JSON
	// cannot carry +Inf).
	ConvergenceTime     float64 `json:"convergenceTime"`
	FractionOscillation float64 `json:"fractionOscillation"`
	MeanResponseTime    float64 `json:"meanResponseTime"`
	SLAViolationRatio   float64 `json:"slaViolationRatio"`
	SuccessRatio        float64 `json:"successRatio"`
	ForwardedFraction   float64 `json:"forwardedFraction"`
	Eras                uint64  `json:"eras"`
	// ProactiveRejuvenations and Crashes sum the regions' dependability
	// counters.
	ProactiveRejuvenations uint64 `json:"proactiveRejuvenations"`
	Crashes                uint64 `json:"crashes"`
	// GossipMeanLagSeconds, GossipSent and GossipMaxDivergence are the
	// gossip plane's convergence lag, messages sent and final version gap
	// (see gossip.Stats); all three read 0 for a run without one.
	GossipMeanLagSeconds float64 `json:"gossipMeanLagSeconds"`
	GossipSent           uint64  `json:"gossipSent"`
	GossipMaxDivergence  uint64  `json:"gossipMaxDivergence"`
	// Err is the job's failure message, empty on success.
	Err string `json:"err,omitempty"`
}

// RowFromJobResult flattens one job result into its sweep row.
func RowFromJobResult(jr JobResult) SweepRow {
	row := SweepRow{
		Index:    jr.Job.Index,
		Scenario: jr.Job.Scenario.Name,
		Policy:   jr.Job.Policy.Key,
		Seed:     jr.Job.Scenario.Seed,
		Beta:     jr.Job.Scenario.Beta,
		Rep:      jr.Job.Rep,
	}
	if jr.Err != nil {
		row.Err = jr.Err.Error()
		return row
	}
	r := jr.Result
	row.Converged = r.RMTTFConvergence.Converged
	row.RelativeSpread = r.RMTTFConvergence.RelativeSpread
	row.ConvergenceTime = -1
	if r.RMTTFConvergence.Converged && !math.IsInf(r.RMTTFConvergence.ConvergenceTime, 0) {
		row.ConvergenceTime = r.RMTTFConvergence.ConvergenceTime
	}
	row.FractionOscillation = r.FractionOscillation
	row.MeanResponseTime = r.MeanResponseTime
	row.SLAViolationRatio = r.SLAViolationRatio
	row.SuccessRatio = r.SuccessRatio
	row.ForwardedFraction = r.ForwardedFraction
	row.Eras = r.Eras
	row.ProactiveRejuvenations = r.ProactiveRejuvenations
	row.Crashes = r.Crashes
	if g := r.Gossip; g != nil {
		row.GossipMeanLagSeconds = g.MeanLagSeconds
		row.GossipSent = g.Sent
		row.GossipMaxDivergence = g.MaxDivergence
	}
	return row
}

// RowsFromJobResults flattens a full result set, in job order.
func RowsFromJobResults(results []JobResult) []SweepRow {
	rows := make([]SweepRow, len(results))
	for i, jr := range results {
		rows[i] = RowFromJobResult(jr)
	}
	return rows
}

// sweepHeader is the CSV column order.
var sweepHeader = []string{
	"index", "scenario", "policy", "seed", "beta", "rep",
	"converged", "relative_spread", "convergence_time_s", "fraction_oscillation",
	"mean_rt_s", "sla_violation_ratio", "success_ratio", "forwarded_fraction",
	"eras", "proactive_rejuvenations", "crashes",
	"gossip_mean_lag_s", "gossip_sent", "gossip_max_divergence", "err",
}

// WriteSweepCSV writes the rows as CSV with a header line.
func WriteSweepCSV(w io.Writer, rows []SweepRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(sweepHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		rec := []string{
			strconv.Itoa(r.Index), r.Scenario, r.Policy, strconv.FormatUint(r.Seed, 10),
			f(r.Beta), strconv.Itoa(r.Rep),
			strconv.FormatBool(r.Converged), f(r.RelativeSpread), f(r.ConvergenceTime),
			f(r.FractionOscillation), f(r.MeanResponseTime), f(r.SLAViolationRatio),
			f(r.SuccessRatio), f(r.ForwardedFraction),
			strconv.FormatUint(r.Eras, 10), strconv.FormatUint(r.ProactiveRejuvenations, 10),
			strconv.FormatUint(r.Crashes, 10), f(r.GossipMeanLagSeconds),
			strconv.FormatUint(r.GossipSent, 10), strconv.FormatUint(r.GossipMaxDivergence, 10), r.Err,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSweepJSON writes the rows as an indented JSON array.
func WriteSweepJSON(w io.Writer, rows []SweepRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// SweepTable renders the rows as an aligned text table for terminal output.
// A converged run whose convergence time is unknown (-1) reads "n/a"; a run
// that never converged reads "never".
func SweepTable(rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-13s %5s %3s %4s %7s %8s %8s %9s %7s %7s %7s %5s %5s %7s %6s %6s %6s\n",
		"scenario", "policy", "beta", "rep", "conv", "spread", "convTime", "fOscill", "meanRT(s)",
		"slaViol", "success", "forward", "eras", "rejuv", "crashes", "lag(s)", "sent", "diverg")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-28s %-13s %5.2f %3d  ERROR: %s\n", r.Scenario, r.Policy, r.Beta, r.Rep, r.Err)
			continue
		}
		conv, convTime := "no", "never"
		if r.Converged {
			conv, convTime = "yes", "n/a"
			if r.ConvergenceTime >= 0 {
				convTime = fmt.Sprintf("%.0fs", r.ConvergenceTime)
			}
		}
		fmt.Fprintf(&b, "%-28s %-13s %5.2f %3d %4s %7.3f %8s %8.4f %9.3f %7.4f %7.4f %7.4f %5d %5d %7d %6.1f %6d %6d\n",
			r.Scenario, r.Policy, r.Beta, r.Rep, conv, r.RelativeSpread, convTime, r.FractionOscillation,
			r.MeanResponseTime, r.SLAViolationRatio, r.SuccessRatio, r.ForwardedFraction, r.Eras,
			r.ProactiveRejuvenations, r.Crashes, r.GossipMeanLagSeconds, r.GossipSent, r.GossipMaxDivergence)
	}
	return b.String()
}

// RunSweep is the one sweep pipeline: execute the jobs — through the
// checkpoint journal when journalPath is non-empty — and return the
// summary rows in job order.  A Matrix's Expand, the ablation builders
// (ablation.go) and hand-built job lists all feed it.
func RunSweep(ctx context.Context, jobs []Job, opt Options, journalPath string) ([]SweepRow, error) {
	if journalPath != "" {
		return runJournaled(ctx, jobs, opt, journalPath)
	}
	results, err := RunParallel(ctx, jobs, opt)
	if err != nil {
		return nil, err
	}
	return RowsFromJobResults(results), nil
}

// WriteSweepFile writes the rows to path with the given emitter
// (WriteSweepCSV or WriteSweepJSON); an empty path is a no-op.
func WriteSweepFile(path string, rows []SweepRow, emit func(io.Writer, []SweepRow) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RunSweepAndEmit is the whole sweep-CLI tail shared by cmd/figures (its
// -scenarios sweeps and its ablations) and cmd/acmsim: execute the jobs
// (checkpointed through journalPath when non-empty), print the summary
// table to out, and write the rows as CSV and/or JSON with a "wrote ..."
// notice per file.  The CLIs keep only their flag handling.
func RunSweepAndEmit(ctx context.Context, jobs []Job, opt Options, journalPath, csvPath, jsonPath string, out io.Writer) error {
	rows, err := RunSweep(ctx, jobs, opt, journalPath)
	if err != nil {
		return err
	}
	fmt.Fprint(out, SweepTable(rows))
	for _, dst := range []struct {
		path string
		emit func(io.Writer, []SweepRow) error
	}{{csvPath, WriteSweepCSV}, {jsonPath, WriteSweepJSON}} {
		if dst.path == "" {
			continue
		}
		if err := WriteSweepFile(dst.path, rows, dst.emit); err != nil {
			return err
		}
		fmt.Fprintln(out, "wrote", dst.path)
	}
	return nil
}

// ParseList splits a comma-separated flag value into trimmed non-empty
// items ("figure3, figure4" -> ["figure3" "figure4"]).
func ParseList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseFloatList parses a comma-separated list of floats ("0.25,0.75").
func ParseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, part := range ParseList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("experiment: invalid number %q in list %q", part, s)
		}
		out = append(out, v)
	}
	return out, nil
}
