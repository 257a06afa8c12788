package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

// compareMain prints a verdict for every (end-to-end metric, workload) pair
// of two result files, baseline first, using the bounds in BENCHMARK.json,
// and lists the per-layer counts that differ.  It exits 1 on any "worse".
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] baseline.json candidate.json")
		return 2
	}
	var spec benchSpec
	var a, b resultFile
	for _, f := range []struct {
		path string
		v    any
	}{{*specPath, &spec}, {fs.Arg(0), &a}, {fs.Arg(1), &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}

	var names []string
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	worse := false
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		fmt.Printf("== %s\n", name)
		for _, m := range spec.EndToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(sa, sb, m.Better == "lower", m.Bound)
			worse = worse || v == verdictWorse
			fmt.Printf("  %-22s %-10s %12.6g -> %-12.6g %+7.2f%%  spread %.3f / %.3f  bound %.3f\n",
				m.Name, v, sa.Median, sb.Median, 100*(sb.Median-sa.Median)/sa.Median, sa.spread(), sb.spread(), m.Bound)
		}
		differ := 0
		for _, m := range spec.PerLayer {
			la, okA := wa.PerLayer[m.Name]
			lb, okB := wb.PerLayer[m.Name]
			if okA && okB && m.Unit == "count" && la.Value != lb.Value {
				differ++
				fmt.Printf("  count %-28s differs: %v -> %v\n", m.Name, la.Value, lb.Value)
			}
		}
		if differ == 0 {
			fmt.Println("  per-layer counts: identical")
		}
	}
	if worse {
		return 1
	}
	return 0
}
