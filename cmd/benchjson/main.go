// Command benchjson turns `go test -bench` text output into a small JSON
// document (benchmark name -> ns/op, B/op, allocs/op and any custom metrics)
// and gates CI on it: the compare mode fails when any benchmark's ns/op
// regressed beyond a tolerance against a committed baseline.
//
// Usage:
//
//	go test -bench='RegionSharded|Figure3' -benchtime=1x -count=3 -benchmem -run='^$' . | benchjson parse -out BENCH_ci.json
//	benchjson compare -baseline BENCH_baseline.json -current BENCH_ci.json -max-regression 0.20
//
// GOMAXPROCS suffixes ("-4") are stripped from benchmark names so a baseline
// recorded on one core count compares against runs on another.  The core
// count is recorded beside the results instead, and compare warns (without
// failing) when the two files were recorded on different core counts.  It
// also warns, naming each, about current benchmarks that have no baseline
// entry: they run but are not gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's recorded values, keyed by benchmark unit
// ("ns/op", "B/op", "allocs/op", "req/s", ...).
type Metrics map[string]float64

// File is the JSON document benchjson reads and writes.
type File struct {
	// NProc is the logical CPU count of the host that parsed the run
	// (runtime.NumCPU; parse runs on the benchmark host, as `make
	// bench-json` does), and GOMAXPROCS is the benchmarks' GOMAXPROCS, read
	// from the "-N" name suffix (1 when absent).  Both are 0 in files
	// recorded before they were added.
	NProc      int `json:"nproc,omitempty"`
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Benchmarks maps the benchmark name (GOMAXPROCS suffix stripped) to its
	// metrics.
	Benchmarks map[string]Metrics `json:"benchmarks"`
	// DeltaPct, when present, maps each benchmark to its percentage movement
	// against the baseline it was compared to ((current-baseline)/baseline *
	// 100, per gated metric).  The compare subcommand annotates the current
	// file with it, so a downloaded BENCH_ci.json artifact shows the
	// regression picture without re-running anything.
	DeltaPct map[string]Metrics `json:"delta_pct,omitempty"`
}

// NsPerOp returns the benchmark's ns/op (0 when absent).
func (m Metrics) NsPerOp() float64 { return m["ns/op"] }

// gatedMetrics are the units the compare gate checks, each with its own
// tolerance class: ns/op regressions use -max-regression, the memory metrics
// (B/op, allocs/op) use -max-mem-regression.
var gatedMetrics = []struct {
	Unit string
	Mem  bool
}{
	{Unit: "ns/op"},
	{Unit: "B/op", Mem: true},
	{Unit: "allocs/op", Mem: true},
}

// benchLine matches one result line of `go test -bench` output:
// name, iteration count, then value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// gomaxprocsSuffix matches the "-N" tail testing appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` text output and collects the per-benchmark
// metrics.  Lines that are not benchmark results (the "goos:" header, PASS,
// custom test logging) are ignored.  A benchmark appearing several times
// (from -count N) records, per unit, the median over its lines, so one noisy
// sample cannot trip the gate.  It records the core count beside the
// results: the parsing host's NumCPU and the largest GOMAXPROCS suffix.
func Parse(r io.Reader) (*File, error) {
	samples := map[string]map[string][]float64{} // name -> unit -> values
	procs := 1
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		if suffix := gomaxprocsSuffix.FindString(m[1]); suffix != "" {
			if n, err := strconv.Atoi(suffix[1:]); err == nil && n > procs {
				procs = n
			}
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("benchjson: odd value/unit pairs in %q", sc.Text())
		}
		metrics := Metrics{}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in %q: %w", fields[i], sc.Text(), err)
			}
			metrics[fields[i+1]] = v
		}
		if _, ok := metrics["ns/op"]; !ok {
			return nil, fmt.Errorf("benchjson: benchmark %s has no ns/op in %q", name, sc.Text())
		}
		if samples[name] == nil {
			samples[name] = map[string][]float64{}
		}
		for unit, v := range metrics {
			samples[name][unit] = append(samples[name][unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark results found in input")
	}
	out := &File{NProc: runtime.NumCPU(), GOMAXPROCS: procs, Benchmarks: map[string]Metrics{}}
	for name, units := range samples {
		metrics := Metrics{}
		for unit, vs := range units {
			metrics[unit] = median(vs)
		}
		out.Benchmarks[name] = metrics
	}
	return out, nil
}

// median returns the middle value of vs (the mean of the two middle values
// for an even count).  vs is sorted in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// Load reads a benchjson JSON file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchjson: parsing %s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchjson: %s holds no benchmarks", path)
	}
	return &f, nil
}

// Write serialises the file as deterministic indented JSON (map keys sort).
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Regression is one benchmark metric that moved beyond its tolerance.
type Regression struct {
	Name     string
	Metric   string  // "ns/op", "B/op" or "allocs/op"
	Baseline float64 // baseline value
	Current  float64 // current value
	Delta    float64 // (current-baseline)/baseline
}

// Compare reports the benchmarks of current whose gated metrics regressed
// beyond their tolerance relative to baseline — ns/op against maxRegression
// (0.20 = 20% slower), B/op and allocs/op against maxMemRegression — plus
// the baseline benchmarks missing from current (gate erosion: a deleted
// benchmark must be deleted from the baseline deliberately, not silently
// skipped).  A memory metric absent on either side is skipped: baselines
// recorded before -benchmem carry no B/op, and that must not fail the gate.
// It also annotates current.DeltaPct with the percentage movement of every
// gated metric present on both sides.
func Compare(baseline, current *File, maxRegression, maxMemRegression float64) (regressions []Regression, missing []string) {
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	current.DeltaPct = map[string]Metrics{}
	for _, name := range names {
		base := baseline.Benchmarks[name]
		cur, ok := current.Benchmarks[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		for _, gm := range gatedMetrics {
			bv, bok := base[gm.Unit]
			cv, cok := cur[gm.Unit]
			if !bok || !cok || bv <= 0 {
				continue
			}
			delta := (cv - bv) / bv
			dp := current.DeltaPct[name]
			if dp == nil {
				dp = Metrics{}
				current.DeltaPct[name] = dp
			}
			dp[gm.Unit] = 100 * delta
			tolerance := maxRegression
			if gm.Mem {
				tolerance = maxMemRegression
			}
			if delta > tolerance {
				regressions = append(regressions, Regression{Name: name, Metric: gm.Unit, Baseline: bv, Current: cv, Delta: delta})
			}
		}
	}
	return regressions, missing
}

// coreCountWarning describes why baseline and current may not be comparable
// core for core: the baseline records no core count, or the two differ.  It
// returns "" when both record the same counts.
func coreCountWarning(baseline, current *File) string {
	if baseline.NProc == 0 {
		return "baseline records no core count; absolute ns/op may not be comparable"
	}
	if baseline.NProc != current.NProc || baseline.GOMAXPROCS != current.GOMAXPROCS {
		return fmt.Sprintf("core counts differ (baseline nproc=%d gomaxprocs=%d, current nproc=%d gomaxprocs=%d); absolute ns/op may not be comparable",
			baseline.NProc, baseline.GOMAXPROCS, current.NProc, current.GOMAXPROCS)
	}
	return ""
}

// ungated returns, sorted, the benchmarks of current that have no baseline
// entry.  Compare cannot gate them, so compare names each in a warning
// rather than skipping them silently; recording their baseline is a
// deliberate step, like deleting one.
func ungated(baseline, current *File) []string {
	var out []string
	for name := range current.Benchmarks {
		if _, ok := baseline.Benchmarks[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// comparisonTable renders every shared benchmark's movement across the gated
// metrics, so the CI log shows the whole perf trajectory, not only the
// failures.
func comparisonTable(w io.Writer, baseline, current *File) {
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		if _, ok := current.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-40s %15s %15s %8s %9s %9s\n", "benchmark", "baseline ns/op", "current ns/op", "Δns/op", "ΔB/op", "Δallocs")
	deltaCol := func(base, cur Metrics, unit string) string {
		bv, bok := base[unit]
		cv, cok := cur[unit]
		if !bok || !cok || bv <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(cv-bv)/bv)
	}
	for _, name := range names {
		base, cur := baseline.Benchmarks[name], current.Benchmarks[name]
		fmt.Fprintf(w, "%-40s %15.0f %15.0f %8s %9s %9s\n", name, base.NsPerOp(), cur.NsPerOp(),
			deltaCol(base, cur, "ns/op"), deltaCol(base, cur, "B/op"), deltaCol(base, cur, "allocs/op"))
	}
}

func runParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	in := fs.String("in", "", "read `go test -bench` output from this file (default: stdin)")
	out := fs.String("out", "", "write the JSON document to this file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	file, err := Parse(r)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return file.Write(w)
}

func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("baseline", "BENCH_baseline.json", "committed baseline JSON")
	curPath := fs.String("current", "BENCH_ci.json", "freshly recorded JSON")
	maxReg := fs.Float64("max-regression", 0.20, "maximum tolerated ns/op regression (0.20 = 20% slower)")
	maxMemReg := fs.Float64("max-mem-regression", 0.25, "maximum tolerated B/op and allocs/op regression (0.25 = 25% more)")
	annotate := fs.Bool("annotate", false, "rewrite the -current file with a delta_pct section recording every gated metric's movement vs the baseline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	baseline, err := Load(*basePath)
	if os.IsNotExist(err) {
		// A missing baseline is the one setup error every new checkout hits;
		// point straight at the recording procedure instead of a bare ENOENT.
		return fmt.Errorf("baseline %s missing — run `make bench-baseline` to record it, then commit the file (procedure in the README)", *basePath)
	}
	if err != nil {
		return err
	}
	current, err := Load(*curPath)
	if err != nil {
		return err
	}
	if w := coreCountWarning(baseline, current); w != "" {
		fmt.Fprintln(os.Stderr, "benchjson: warning:", w)
	}
	for _, name := range ungated(baseline, current) {
		fmt.Fprintf(os.Stderr, "benchjson: warning: %s has no baseline entry and is not gated\n", name)
	}
	comparisonTable(os.Stdout, baseline, current)
	regressions, missing := Compare(baseline, current, *maxReg, *maxMemReg)
	if *annotate {
		f, err := os.Create(*curPath)
		if err != nil {
			return err
		}
		werr := current.Write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "benchjson: baseline benchmark %s missing from current run\n", name)
	}
	for _, r := range regressions {
		tol := *maxReg
		if r.Metric != "ns/op" {
			tol = *maxMemReg
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s regressed %.1f%% (%.0f -> %.0f %s, tolerance %.0f%%)\n",
			r.Name, 100*r.Delta, r.Baseline, r.Current, r.Metric, 100*tol)
	}
	if len(regressions) > 0 || len(missing) > 0 {
		return fmt.Errorf("%d regression(s), %d missing benchmark(s)", len(regressions), len(missing))
	}
	fmt.Printf("benchjson: %d benchmarks within tolerance (ns/op %.0f%%, mem %.0f%%)\n", len(baseline.Benchmarks), 100**maxReg, 100**maxMemReg)
	return nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson parse [-in bench.txt] [-out bench.json] | benchjson compare [-baseline a.json] [-current b.json] [-max-regression 0.20]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "parse":
		err = runParse(os.Args[2:])
	case "compare":
		err = runCompare(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q (use parse or compare)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
