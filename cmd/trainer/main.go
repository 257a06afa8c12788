// Command trainer runs the F2PM machine-learning toolchain end to end: it
// profiles a pool of simulated VMs until enough failure episodes have been
// observed, labels the collected feature vectors with the Remaining Time To
// Failure, selects the relevant features via Lasso regularisation, trains the
// six candidate model families (Linear Regression, M5P, REP-Tree, Lasso, SVR,
// LS-SVM), and prints the comparison table F2PM presents to the user — the E4
// experiment of the reproduction.
//
// Examples:
//
//	trainer                               # profile m3.medium VMs, compare all models
//	trainer -instance private -failures 20
//	trainer -instance all                 # train every paper instance type in parallel
//	trainer -model M5P -dataset out.csv   # force the runtime model, save the dataset
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/cli"
	"repro/internal/cloudsim"
	"repro/internal/experiment"
	"repro/internal/f2pm"
	"repro/internal/features"
	"repro/internal/simclock"
)

func main() {
	var (
		instance = flag.String("instance", "m3.medium", "instance type to profile: m3.medium, m3.small, private or all")
		vms      = flag.Int("vms", 4, "number of VMs profiled in parallel")
		rate     = flag.Float64("rate", 6, "open-loop request rate per VM (req/s)")
		failures = flag.Int("failures", 12, "failure episodes to observe before training")
		sample   = flag.Float64("sample", 30, "feature sampling interval in seconds")
		model    = flag.String("model", "REPTree", "runtime model to install (empty = best by RMSE)")
		seed     = flag.Uint64("seed", 7, "deterministic seed")
		dataset  = flag.String("dataset", "", "optional path to save the labelled dataset as CSV")
	)
	flag.Parse()

	if err := run(*instance, *vms, *rate, *failures, *sample, *model, *seed, *dataset); err != nil {
		fmt.Fprintln(os.Stderr, "trainer:", err)
		os.Exit(1)
	}
}

func run(instance string, vms int, rate float64, failures int, sampleS float64, model string, seed uint64, datasetPath string) error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"vms", float64(vms)}, {"rate", rate}, {"failures", float64(failures)}, {"sample", sampleS}} {
		if err := cli.RequirePositive(f.name, f.v); err != nil {
			return err
		}
	}
	if instance == "all" {
		return runAll(vms, rate, failures, sampleS, model, seed, datasetPath)
	}
	var itype cloudsim.InstanceType
	switch instance {
	case "m3.medium":
		itype = cloudsim.M3Medium
	case "m3.small":
		itype = cloudsim.M3Small
	case "private":
		itype = cloudsim.PrivateVM
	default:
		return fmt.Errorf("unknown instance type %q (use m3.medium, m3.small, private or all)", instance)
	}

	pcfg := f2pm.ProfileConfig{
		Seed:           seed,
		Instance:       itype,
		VMs:            vms,
		RatePerVM:      rate,
		SampleInterval: simclock.Duration(sampleS),
		TargetFailures: failures,
	}.WithDefaults()
	fmt.Printf("profiling %d %s VMs at %.1f req/s each until %d failure episodes...\n",
		vms, itype.Name, rate, failures)
	ds, err := f2pm.CollectSyntheticDataset(pcfg)
	if err != nil {
		return err
	}
	fmt.Printf("collected %d labelled samples from %d VMs\n", ds.Len(), len(ds.VMs()))

	if datasetPath != "" {
		if err := writeDatasetCSV(datasetPath, ds); err != nil {
			return err
		}
		fmt.Println("wrote dataset to", datasetPath)
	}

	tcfg := f2pm.DefaultConfig()
	tcfg.PreferredModel = model
	runtimeModel, report, err := f2pm.Train(ds, tcfg)
	if err != nil {
		return err
	}

	fmt.Println()
	fmt.Println("model comparison (held-out split, best RMSE first; * marks the installed runtime model):")
	fmt.Print(report.Table())
	fmt.Printf("\ninstalled runtime model: %s over %d features\n", runtimeModel.Name, len(runtimeModel.Features))
	fmt.Printf("held-out metrics: %s\n", report.ChosenMetrics)
	if report.CrossValidation.N > 0 {
		fmt.Printf("%d-fold cross-validation: %s\n", tcfg.CVFolds, report.CrossValidation)
	}
	return nil
}

// runAll profiles and trains every paper instance type concurrently on the
// experiment worker pool — the same bounded pool the parallel scenario runner
// uses — and prints the comparison tables in a fixed order.  Each instance
// type profiles on its own deterministic seed stream derived from (seed,
// index), so the output is identical for any worker count.  When datasetPath
// is set, each type's labelled dataset is written to "<base>-<type><ext>".
func runAll(vms int, rate float64, failures int, sampleS float64, model string, seed uint64, datasetPath string) error {
	types := []cloudsim.InstanceType{cloudsim.M3Medium, cloudsim.M3Small, cloudsim.PrivateVM}
	reports := make([]string, len(types))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(types) {
		workers = len(types)
	}
	fmt.Printf("profiling %d instance types in parallel (%d workers)...\n", len(types), workers)
	err := experiment.ForEach(context.Background(), len(types), workers, func(i int) error {
		pcfg := f2pm.ProfileConfig{
			Seed:           simclock.DeriveSeed(seed, uint64(i)),
			Instance:       types[i],
			VMs:            vms,
			RatePerVM:      rate,
			SampleInterval: simclock.Duration(sampleS),
			TargetFailures: failures,
		}.WithDefaults()
		ds, err := f2pm.CollectSyntheticDataset(pcfg)
		if err != nil {
			return fmt.Errorf("%s: %w", types[i].Name, err)
		}
		var savedTo string
		if datasetPath != "" {
			savedTo = perTypePath(datasetPath, types[i].Name)
			if err := writeDatasetCSV(savedTo, ds); err != nil {
				return fmt.Errorf("%s: %w", types[i].Name, err)
			}
		}
		tcfg := f2pm.DefaultConfig()
		tcfg.PreferredModel = model
		runtimeModel, report, err := f2pm.Train(ds, tcfg)
		if err != nil {
			return fmt.Errorf("%s: %w", types[i].Name, err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "=== %s ===\n", types[i].Name)
		b.WriteString(report.Table())
		fmt.Fprintf(&b, "installed runtime model: %s over %d features, held-out %s\n",
			runtimeModel.Name, len(runtimeModel.Features), report.ChosenMetrics)
		if savedTo != "" {
			fmt.Fprintf(&b, "wrote dataset to %s\n", savedTo)
		}
		reports[i] = b.String() // distinct index per call: no shared writes
		return nil
	})
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Println(r)
	}
	return nil
}

// perTypePath inserts the instance type name before the path's extension:
// "out.csv" + "m3.medium" -> "out-m3.medium.csv".
func perTypePath(path, typeName string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + typeName + ext
}

// writeDatasetCSV saves one labelled dataset.
func writeDatasetCSV(path string, ds *features.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ds.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
