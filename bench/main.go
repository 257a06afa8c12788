// Command bench is the repository's reference benchmark.  It times four
// closed-loop simulation workloads end to end, each op in a fresh child
// process, verifies their outputs against the golden files, and prices every
// simulator layer with standalone probes so that traced counts times
// per-layer cost can be set against the measured run time (the ledger).
// See README.md for the workloads, metrics and how to read the output.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/simclock"
)

const (
	// childTimeout bounds one op; the slowest op takes ~4 s on two cores.
	childTimeout = 120 * time.Second
	// probeBudget is the probe time per workload of a full invocation.
	probeBudget = 4 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload for -seconds and print one JSON result line (default: every workload for -reps ops)")
	seed := fs.Uint64("seed", verifySeed, "seed of the timed ops' scenarios")
	seconds := fs.Float64("seconds", 20, "with -workload: how long to run timed ops")
	traced := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	reps := fs.Int("reps", 10, "without -workload: timed ops per workload")
	out := fs.String("out", "", "write the full result (every op's values) to this JSON file")
	goldenDir := fs.String("golden", "internal/experiment/testdata/golden", "directory of the golden files")
	child := fs.Bool("child", false, "internal: run one op of -workload and print it as JSON")
	childTraced := fs.Bool("traced", false, "internal: with -child, trace the op")
	childHorizon := fs.Float64("horizon", 0, "internal: with -child, the simulated seconds of each run")
	calib := fs.Bool("calib", false, "internal: run the calibration kernel and print its time")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *calib {
		fmt.Println(calibrate())
		return 0
	}
	if *child {
		return childMain(*name, *seed, simclock.Duration(*childHorizon), *childTraced)
	}

	res := newResultFile(*seed)
	var failed bool
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *name, workloadNames())
			return 2
		}
		if *traced != 0 && *traced != 1 {
			fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", *traced)
			return 2
		}
		r := runTimed(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *goldenDir)
		res.Workloads[w.name] = r.result()
		failed = r.failed > 0
		if err := printLine(r, *traced == 1); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	} else {
		failed = runAll(res, *seed, *reps, *goldenDir)
		printTable(res)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// childMain runs one op in this process and prints it on standard output.
func childMain(name string, seed uint64, horizon simclock.Duration, traced bool) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	op, err := runOp(w, seed, horizon, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(op); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runSelf runs this binary with args as a child process, one at a time, and
// returns its standard output and peak RSS in MB.
func runSelf(args ...string) ([]byte, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, err
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return stdout.Bytes(), rss, nil
}

// runChild runs one op in a fresh child process.
func runChild(w workload, seed uint64, horizon simclock.Duration, traced bool) (*opResult, error) {
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-horizon", strconv.FormatFloat(horizon.Seconds(), 'g', -1, 64)}
	if traced {
		args = append(args, "-traced")
	}
	out, rss, err := runSelf(args...)
	if err != nil {
		return nil, fmt.Errorf("%s op (seed %d): %w", w.name, seed, err)
	}
	var op opResult
	if err := json.Unmarshal(out, &op); err != nil {
		return nil, fmt.Errorf("%s op: decoding child output: %w", w.name, err)
	}
	op.PeakRSSMB = rss
	return &op, nil
}

// calibrator runs the calibration kernel before the first timed op of an
// invocation and after every timed op, each time in a process of its own so
// that neither the kernel's heap nor its time mixes with an op's.
type calibrator struct{ times []float64 }

func (c *calibrator) run() error {
	out, _, err := runSelf("-calib")
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	t, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}
	c.times = append(c.times, t)
	return nil
}

// timedOp runs one op between calibration runs.
func (c *calibrator) timedOp(w workload, seed uint64, traced bool) (*opResult, error) {
	if len(c.times) == 0 {
		if err := c.run(); err != nil {
			return nil, err
		}
	}
	op, err := runChild(w, seed, w.horizon, traced)
	if err != nil {
		return nil, err
	}
	return op, c.run()
}

// scale converts the invocation's raw host seconds to reference-machine
// seconds: refCalibS over the median kernel time.  The median over the whole
// invocation follows the machine's drift across invocations without adding
// the kernel's own run-to-run noise to every op; without calibration runs
// the times stay raw.  The -out file keeps the raw times next to the scaled
// ones.
func (c *calibrator) scale() float64 {
	if len(c.times) == 0 {
		return 1
	}
	return refCalibS / median(c.times)
}

// session accumulates one workload's ops and their checks.
type session struct {
	w                 workload
	calib             *calibrator
	attempted, failed int
	problems          []string
	ops, tracedOps    []*opResult
	probes            probeCosts
	// fingerprint is the series hashes every op of the timed seed must share.
	fingerprint string
}

func (s *session) fail(err error) {
	s.failed++
	s.problems = append(s.problems, err.Error())
	fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %v\n", s.w.name, err)
}

// verify runs one op at the golden seed and checks it against the golden
// files and every Section VI-B claim.
func (s *session) verify(goldenDir string) {
	s.attempted++
	op, err := runChild(s.w, verifySeed, goldenHorizon, false)
	if err == nil {
		err = checkOp(s.w, op, true)
	}
	if err == nil {
		err = checkGolden(goldenDir, s.w, op)
	}
	if err != nil {
		s.fail(fmt.Errorf("verification: %w", err))
	}
}

// op runs one timed (or traced) op at seed and checks it.
func (s *session) op(seed uint64, traced bool) {
	s.attempted++
	op, err := s.calib.timedOp(s.w, seed, traced)
	if err == nil {
		err = checkOp(s.w, op, seed == verifySeed)
	}
	if err == nil {
		// Runs are deterministic and tracing is byte-invisible, so every op
		// of one seed, traced or not, must reproduce the first op's series.
		if fp := op.fingerprint(); s.fingerprint == "" {
			s.fingerprint = fp
		} else if fp != s.fingerprint {
			err = fmt.Errorf("series hashes %s differ from the first op's %s", fp, s.fingerprint)
		}
	}
	if err == nil && traced && len(s.tracedOps) > 0 && !sameCounts(op.Counts, s.tracedOps[0].Counts) {
		err = fmt.Errorf("traced counts %+v differ from the first traced op's %+v", *op.Counts, *s.tracedOps[0].Counts)
	}
	if err != nil {
		s.fail(err)
		return
	}
	if traced {
		s.tracedOps = append(s.tracedOps, op)
	} else {
		s.ops = append(s.ops, op)
	}
	fmt.Fprintf(os.Stderr, "bench: %s op %d: setup %.4fs run %.3fs cpu %.3fs rss %.0fMB traced=%v (raw host times)\n",
		s.w.name, s.attempted, op.SetupS, op.RunS, op.CPUS, op.PeakRSSMB, traced)
}

// sameCounts compares the deterministic fields of two traced ops' counts
// (the scrape time is a host measurement).
func sameCounts(a, b *traceCounts) bool {
	x, y := *a, *b
	x.ScrapeNs, y.ScrapeNs = 0, 0
	return x == y
}

// measureLayers sizes and runs the probes from the first traced op.
func (s *session) measureLayers(budget time.Duration) {
	if len(s.tracedOps) == 0 {
		return
	}
	sz, err := sizingFor(s.w, s.tracedOps[0].Counts)
	if err == nil {
		s.probes, err = runProbes(sz, budget)
	}
	if err != nil {
		s.attempted++
		s.fail(fmt.Errorf("probes: %w", err))
	}
}

// runTimed is one measured run of one workload: verification, then timed
// ops for the given duration.  A traced run alternates untraced and traced
// ops for half the duration and probes the layers for the rest.
func runTimed(w workload, seed uint64, d time.Duration, traced bool, goldenDir string) *session {
	s := &session{w: w, calib: &calibrator{}}
	s.verify(goldenDir)
	start := time.Now()
	if !traced {
		for len(s.ops) == 0 || time.Since(start) < d {
			s.op(seed, false)
			if s.failed > 0 && len(s.ops) == 0 {
				break
			}
		}
		return s
	}
	for len(s.tracedOps) == 0 || time.Since(start) < d/2 {
		s.op(seed, false)
		s.op(seed, true)
		if s.failed > 0 && len(s.tracedOps) == 0 {
			break
		}
	}
	s.measureLayers(max(d-time.Since(start), probeMeasurements*50*time.Millisecond))
	return s
}

// runAll runs every workload: verification, reps timed ops interleaved
// round-robin across the workloads (starting one workload later each rep, so
// slow drift of the machine hits every workload alike), then one traced op
// and the probes per workload.  It reports whether anything failed.
func runAll(res *resultFile, seed uint64, reps int, goldenDir string) bool {
	sessions := make([]*session, len(workloads))
	calib := &calibrator{}
	for i, w := range workloads {
		sessions[i] = &session{w: w, calib: calib}
		sessions[i].verify(goldenDir)
	}
	for rep := 0; rep < reps; rep++ {
		for k := range sessions {
			sessions[(rep+k)%len(sessions)].op(seed, false)
		}
	}
	failed := false
	for _, s := range sessions {
		s.op(seed, true)
		s.measureLayers(probeBudget)
		res.Workloads[s.w.name] = s.result()
		failed = failed || s.failed > 0
	}
	return failed
}

// endToEnd summarises every end-to-end metric over the timed ops, with the
// host times multiplied by scale.
func (s *session) endToEnd(scale float64) map[string]summary {
	if len(s.ops) == 0 {
		return nil
	}
	out := map[string]summary{}
	for _, m := range endToEndMetrics {
		values := make([]float64, len(s.ops))
		for i, op := range s.ops {
			values[i] = m.value(op, scale)
		}
		out[m.name] = summarize(m.unit, values)
	}
	return out
}

// perLayer computes every per-layer metric from the first traced op, the
// probes and the run times of the untraced and traced ops.
func (s *session) perLayer() map[string]layerValue {
	if len(s.tracedOps) == 0 || len(s.ops) == 0 {
		return nil
	}
	in := layerInput{op: s.tracedOps[0], c: s.tracedOps[0].Counts, p: s.probes}
	in.runS = median(runTimes(s.ops))
	in.overhead = median(runTimes(s.tracedOps))/in.runS - 1
	out := map[string]layerValue{}
	for _, m := range perLayerMetrics {
		out[m.name] = layerValue{Value: m.value(in), Unit: m.unit}
	}
	return out
}

// runTimes lists the ops' raw run times.
func runTimes(ops []*opResult) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = op.RunS
	}
	return out
}

func (s *session) result() *workloadResult {
	return &workloadResult{
		Attempted:   s.attempted,
		Failed:      s.failed,
		Problems:    s.problems,
		Scale:       s.calib.scale(),
		CalibS:      s.calib.times,
		EndToEnd:    s.endToEnd(s.calib.scale()),
		EndToEndRaw: s.endToEnd(1),
		PerLayer:    s.perLayer(),
	}
}

// resultFile is the full result of an invocation, the input of compare.
type resultFile struct {
	NumCPU     int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	GoVersion  string                     `json:"go_version"`
	Seed       uint64                     `json:"seed"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Scale is the calibration factor the end-to-end times were multiplied
	// by (reference-machine seconds per host second), CalibS the kernel times
	// it was computed from.
	Scale  float64   `json:"scale"`
	CalibS []float64 `json:"calib_s,omitempty"`
	// EndToEnd holds the reported metrics; EndToEndRaw the same metrics with
	// the times in unscaled host seconds.
	EndToEnd    map[string]summary    `json:"end_to_end,omitempty"`
	EndToEndRaw map[string]summary    `json:"end_to_end_raw,omitempty"`
	PerLayer    map[string]layerValue `json:"per_layer,omitempty"`
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResultFile(seed uint64) *resultFile {
	return &resultFile{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Workloads:  map[string]*workloadResult{},
	}
}

// printLine prints the one-line result of a single-workload run: the
// end-to-end medians, or with traced the per-layer values.
func printLine(s *session, traced bool) error {
	metrics := s.perLayer()
	if !traced {
		metrics = map[string]layerValue{}
		for name, sm := range s.endToEnd(s.calib.scale()) {
			metrics[name] = layerValue{Value: sm.Median, Unit: sm.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   s.failed == 0,
		"attempted": s.attempted,
		"failed":    s.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// printTable prints every workload's metrics as a text report.
func printTable(res *resultFile) {
	fmt.Printf("nproc %d  GOMAXPROCS %d  %s  seed %d\n", res.NumCPU, res.GOMAXPROCS, res.GoVersion, res.Seed)
	for _, w := range workloads {
		r := res.Workloads[w.name]
		fmt.Printf("\n== %s: %d ops attempted, %d failed, host times scaled by %.4g\n", w.name, r.Attempted, r.Failed, r.Scale)
		for _, m := range endToEndMetrics {
			if sm, ok := r.EndToEnd[m.name]; ok {
				fmt.Printf("  %-30s %14.6g %-11s p25 %-12.6g p75 %-12.6g n %d\n", m.name, sm.Median, sm.Unit, sm.P25, sm.P75, sm.N)
			}
		}
		for _, m := range perLayerMetrics {
			if v, ok := r.PerLayer[m.name]; ok {
				fmt.Printf("  %-30s %14.6g %s\n", m.name, v.Value, v.Unit)
			}
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	return nil
}
