package pcam

import (
	"reflect"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/f2pm"
	"repro/internal/features"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// modelRun is what one VMC run exposes of its predictions and decisions.
type modelRun struct {
	Stats     Stats
	RMTTF     float64
	Predicted map[string]float64
}

// runModelVMC drives open-loop traffic through a VMC with the given predictor
// for two simulated hours and records its per-VM predictions, RMTTF and
// counters.  The 200 s threshold sits inside the trained model's prediction
// range, so some ticks rejuvenate and some do not.
func runModelVMC(t *testing.T, pred RTTFPredictor) (modelRun, *VMC) {
	t.Helper()
	eng := simclock.NewEngine(8)
	region := testRegion(8)
	cfg := DefaultConfig()
	cfg.RTTFThreshold = 200
	cfg.ElasticityEnabled = false
	vmc := newTestVMC(t, region, pred, cfg)
	vmc.Start(eng)
	gen := workload.NewOpenLoop(workload.OpenLoopConfig{Region: "region3", RatePerSec: 18},
		simclock.NewRNG(88), DispatcherAdapter(vmc), workload.NewMetrics())
	gen.Start(eng)
	if err := eng.Run(2 * simclock.Hour); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	gen.Stop()
	vmc.Stop()
	r := modelRun{Stats: vmc.Stats(), RMTTF: vmc.RMTTF(), Predicted: map[string]float64{}}
	for _, vm := range region.VMs() {
		r.Predicted[vm.ID()] = vmc.PredictedRTTF(vm.ID())
	}
	return r, vmc
}

// TestModelPredictorMeasuresOnlyItsFeatures is the ML path's equivalence
// pin: a VMC whose ModelPredictor wraps a trained f2pm model measures only
// the model's Lasso subset (plus the rate and response time the tick reads),
// yet ends with exactly the predictions, RMTTF and rejuvenation counts of a
// VMC that measures every feature because its PredictorFunc around the same
// model declares none.  The model is a linear regression: its output moves
// with every noisy input bit, so a sample that shifted any VM's random
// stream would show in the predictions, where a tree's leaves could hide it.
func TestModelPredictorMeasuresOnlyItsFeatures(t *testing.T) {
	model, _, err := f2pm.TrainFromProfile(f2pm.ProfileConfig{
		Seed:           11,
		Instance:       cloudsim.PrivateVM,
		VMs:            3,
		RatePerVM:      8,
		SampleInterval: 20 * simclock.Second,
		TargetFailures: 4,
		MaxHorizon:     12 * simclock.Hour,
	}, f2pm.Config{PreferredModel: "LinearRegression"})
	if err != nil {
		t.Fatalf("TrainFromProfile: %v", err)
	}
	if len(model.Features) >= features.NumFeatures {
		t.Fatalf("model kept all %d features; the test needs a strict subset", len(model.Features))
	}

	subset, subsetVMC := runModelVMC(t, ModelPredictor{Model: model})
	every, everyVMC := runModelVMC(t, PredictorFunc(func(_ *cloudsim.VM, s features.Vector) float64 {
		return model.PredictRTTF(s)
	}))
	want := features.MaskOf(model.Features...) | features.MaskOf(features.RequestRate, features.ResponseTimeMs)
	if subsetVMC.measure != want || everyVMC.measure != features.All {
		t.Fatalf("measured masks %b and %b, want %b and every feature", subsetVMC.measure, everyVMC.measure, want)
	}
	if !reflect.DeepEqual(subset, every) {
		t.Fatalf("measuring the model's subset diverged from measuring every feature:\nsubset: %+v\nevery:  %+v", subset, every)
	}
	if subset.Stats.ProactiveRejuvenations == 0 {
		t.Fatalf("the model triggered no proactive rejuvenation; the equivalence would be vacuous: %+v", subset.Stats)
	}
}
