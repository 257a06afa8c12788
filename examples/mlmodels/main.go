// F2PM model comparison: the machine-learning toolchain behind ACM.
//
// The example reproduces the F2PM workflow the paper relies on (Section III):
// a pool of VMs is profiled under load until several failure episodes have
// been observed, every sample is labelled with its Remaining Time To Failure,
// Lasso regularisation selects the relevant system features, and the six
// candidate model families are trained and compared.  The paper selects
// REP-Tree as the runtime predictor based on this comparison.
//
// Run with:
//
//	go run ./examples/mlmodels
package main

import (
	"fmt"
	"log"

	"repro/internal/cloudsim"
	"repro/internal/f2pm"
	"repro/internal/features"
	"repro/internal/simclock"
)

func main() {
	// 1. Profiling phase: drive four private VMs with an open-loop workload
	// until a dozen failure episodes have been observed.
	profile := f2pm.ProfileConfig{
		Seed:           7,
		Instance:       cloudsim.PrivateVM,
		VMs:            4,
		RatePerVM:      8,
		SampleInterval: 20 * simclock.Second,
		TargetFailures: 12,
	}.WithDefaults()
	fmt.Println("profiling 4 private VMs until 12 failure episodes are observed ...")
	dataset, err := f2pm.CollectSyntheticDataset(profile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("feature database: %d labelled samples, %d features, %d VMs\n",
		dataset.Len(), len(dataset.Features), len(dataset.VMs()))

	// 2. Training phase: Lasso feature selection + the six model families.
	model, report, err := f2pm.Train(dataset, f2pm.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("model comparison (the paper picks REP-Tree):")
	fmt.Print(report.Table())

	// 3. Use the runtime model the way PCAM does: predict the RTTF of a
	// healthy and of a nearly-exhausted VM.
	healthy := probe(dataset, true)
	worn := probe(dataset, false)
	fmt.Println()
	fmt.Printf("predicted RTTF of a freshly rejuvenated VM: %8.0f s\n", model.PredictRTTF(healthy))
	fmt.Printf("predicted RTTF of an almost-failed VM:      %8.0f s\n", model.PredictRTTF(worn))
}

// probe returns the dataset sample with the largest (healthy) or smallest
// (worn) labelled RTTF, to show predictions on realistic inputs.
func probe(ds *features.Dataset, healthy bool) features.Vector {
	best := ds.Samples[0]
	for _, s := range ds.Samples {
		if healthy && s.RTTFSeconds > best.RTTFSeconds {
			best = s
		}
		if !healthy && s.RTTFSeconds < best.RTTFSeconds {
			best = s
		}
	}
	return best.Vector
}
