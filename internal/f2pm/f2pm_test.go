package f2pm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/features"
	"repro/internal/simclock"
)

// syntheticDataset builds a small, clearly learnable dataset: the RTTF is a
// noisy linear function of memory used and zombie threads, with the other
// features carrying little information.
func syntheticDataset(n int, seed uint64) *features.Dataset {
	rng := simclock.NewRNG(seed)
	ds := features.NewDataset(nil)
	for i := 0; i < n; i++ {
		vmID := "vmA"
		if i%2 == 1 {
			vmID = "vmB"
		}
		t := float64(i) * 10
		v := features.NewVector(vmID, t)
		mem := rng.Uniform(100, 2500)
		zombies := rng.Uniform(0, 120)
		rate := rng.Uniform(1, 12)
		for i := range features.NumFeatures {
			v.SetSlot(i, rng.Uniform(0, 10)) // background noise for unused features
		}
		v.SetSlot(features.SlotMemUsedMB, mem)
		v.SetSlot(features.SlotZombieThreads, zombies)
		v.SetSlot(features.SlotRequestRate, rate)
		rttf := 4000 - 1.2*mem - 8*zombies + rng.Normal(0, 40)
		if rttf < 0 {
			rttf = 0
		}
		ds.Add(features.Sample{Vector: v, RTTFSeconds: rttf})
	}
	return ds
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.CVFolds != 5 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	d := DefaultConfig()
	if d.PreferredModel != "REPTree" {
		t.Fatalf("the paper's configuration selects REP-Tree, got %q", d.PreferredModel)
	}
}

func TestTrainRejectsEmptyDataset(t *testing.T) {
	if _, _, err := Train(nil, Config{}); err == nil {
		t.Fatalf("nil dataset should be rejected")
	}
	if _, _, err := Train(features.NewDataset(nil), Config{}); err == nil {
		t.Fatalf("empty dataset should be rejected")
	}
}

func TestTrainRejectsUnknownPreferredModel(t *testing.T) {
	ds := syntheticDataset(200, 1)
	if _, _, err := Train(ds, Config{PreferredModel: "DeepNet9000"}); err == nil {
		t.Fatalf("unknown preferred model should be rejected")
	}
}

func TestTrainProducesUsableModelAndReport(t *testing.T) {
	ds := syntheticDataset(600, 2)
	model, report, err := Train(ds, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if model.Name != "REPTree" {
		t.Fatalf("chosen model = %q, want REPTree", model.Name)
	}
	if len(model.Features) < 2 {
		t.Fatalf("selected features = %v, want at least the informative ones", model.Features)
	}
	// The informative features must survive Lasso selection.
	names := map[features.Name]bool{}
	for _, f := range model.Features {
		names[f] = true
	}
	if !names[features.MemUsedMB] || !names[features.ZombieThreads] {
		t.Fatalf("Lasso should keep mem_used_mb and zombie_threads, kept %v", model.Features)
	}

	if len(report.Scores) != 6 {
		t.Fatalf("report should rank the 6 F2PM model families, got %d", len(report.Scores))
	}
	if report.Chosen != "REPTree" {
		t.Fatalf("report chosen = %q", report.Chosen)
	}
	// The chosen tree should predict far better than random guessing on this
	// easily learnable relation.
	if report.ChosenMetrics.R2 < 0.8 {
		t.Fatalf("REPTree R2 = %v, want > 0.8 on a linear synthetic target", report.ChosenMetrics.R2)
	}
	if report.CrossValidation.N == 0 {
		t.Fatalf("cross-validation metrics missing")
	}

	// Predictions follow the generating trend: more accumulated anomalies =>
	// smaller predicted RTTF, and never negative.
	healthy := features.NewVector("x", 0)
	worn := features.NewVector("x", 0)
	for i := range features.NumFeatures {
		healthy.SetSlot(i, 5)
		worn.SetSlot(i, 5)
	}
	healthy.SetSlot(features.SlotMemUsedMB, 200)
	healthy.SetSlot(features.SlotZombieThreads, 2)
	worn.SetSlot(features.SlotMemUsedMB, 2400)
	worn.SetSlot(features.SlotZombieThreads, 110)
	ph, pw := model.PredictRTTF(healthy), model.PredictRTTF(worn)
	if ph <= pw {
		t.Fatalf("healthy VM should have larger predicted RTTF: healthy=%v worn=%v", ph, pw)
	}
	if pw < 0 {
		t.Fatalf("predictions must be clamped at zero")
	}
}

func TestTrainAutoSelectsBestModelWhenUnspecified(t *testing.T) {
	ds := syntheticDataset(400, 3)
	cfg := Config{CVFolds: 1}
	model, report, err := Train(ds, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if model.Name != report.Scores[0].Name {
		t.Fatalf("auto-selection should pick the best-ranked model: got %q, best is %q",
			model.Name, report.Scores[0].Name)
	}
	if report.CrossValidation.N != 0 {
		t.Fatalf("CV should be skipped when CVFolds <= 1")
	}
}

func TestReportTableAndFeatureNames(t *testing.T) {
	ds := syntheticDataset(300, 4)
	_, report, err := Train(ds, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	tbl := report.Table()
	if !strings.Contains(tbl, "REPTree") || !strings.Contains(tbl, "RMSE") {
		t.Fatalf("table should mention models and metrics:\n%s", tbl)
	}
	if !strings.Contains(tbl, "*") {
		t.Fatalf("table should mark the chosen model")
	}
}

func TestCollectorSamplesAndLabels(t *testing.T) {
	eng := simclock.NewEngine(5)
	vm := cloudsim.NewVM("vm1", &cloudsim.VMConfig{
		Type:         cloudsim.PrivateVM,
		Anomalies:    cloudsim.DefaultAnomalyProfile(),
		Failure:      cloudsim.DefaultFailurePoint(),
		Rejuvenation: cloudsim.DefaultRejuvenationModel(),
	}, eng.RNG().Fork())
	vm.Activate(eng)

	col := NewCollector(10 * simclock.Second)
	col.Attach(vm)
	col.Start(eng)
	col.Start(eng) // double start is a no-op

	// Sustained load so the VM eventually fails.
	var id uint64
	var inject func(e *simclock.Engine)
	inject = func(e *simclock.Engine) {
		if vm.State() != cloudsim.StateActive {
			return
		}
		id++
		vm.Dispatch(e, &cloudsim.Request{ID: id, ServiceFactor: 1, Arrival: e.Now()})
		e.ScheduleFunc(0.12, inject)
	}
	eng.ScheduleFunc(0, inject)
	if err := eng.Run(4 * simclock.Hour); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	col.Stop()

	if len(col.vectors) == 0 {
		t.Fatalf("collector recorded no samples")
	}
	if col.Failures() != 1 {
		t.Fatalf("collector recorded %d failures, want 1", col.Failures())
	}
	ds := col.BuildDataset()
	if ds.Len() == 0 {
		t.Fatalf("labelled dataset is empty")
	}
	// Labels must be consistent: every sample earlier in time has a larger or
	// equal RTTF than a later one from the same (single-failure) episode.
	for i := 1; i < ds.Len(); i++ {
		prev, cur := ds.Samples[i-1], ds.Samples[i]
		if cur.Vector.TimeS > prev.Vector.TimeS && cur.RTTFSeconds > prev.RTTFSeconds+1e-9 {
			t.Fatalf("RTTF labels should decrease toward the failure: %v then %v", prev.RTTFSeconds, cur.RTTFSeconds)
		}
	}
}

func TestCollectSyntheticDatasetAndTrainFromProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run is comparatively slow")
	}
	pcfg := ProfileConfig{
		Seed:           11,
		Instance:       cloudsim.PrivateVM,
		VMs:            3,
		RatePerVM:      8,
		SampleInterval: 20 * simclock.Second,
		TargetFailures: 6,
		MaxHorizon:     12 * simclock.Hour,
	}
	ds, err := CollectSyntheticDataset(pcfg)
	if err != nil {
		t.Fatalf("CollectSyntheticDataset: %v", err)
	}
	if ds.Len() < 50 {
		t.Fatalf("profiling dataset too small: %d samples", ds.Len())
	}
	if got := len(ds.VMs()); got == 0 {
		t.Fatalf("dataset should cover at least one VM")
	}

	model, report, err := TrainFromProfile(pcfg, DefaultConfig())
	if err != nil {
		t.Fatalf("TrainFromProfile: %v", err)
	}
	if model == nil || report == nil {
		t.Fatalf("nil model or report")
	}
	// The model must capture the monotone degradation signal: a fresh VM
	// sample should map to a larger RTTF than a nearly exhausted one.  Build
	// the two probes from actual dataset extremes to stay in-distribution.
	var freshest, mostWorn features.Sample
	for i, s := range ds.Samples {
		if i == 0 || s.RTTFSeconds > freshest.RTTFSeconds {
			freshest = s
		}
		if i == 0 || s.RTTFSeconds < mostWorn.RTTFSeconds {
			mostWorn = s
		}
	}
	pf := model.PredictRTTF(freshest.Vector)
	pw := model.PredictRTTF(mostWorn.Vector)
	if pf <= pw {
		t.Fatalf("model should rank a fresh VM above a worn one: fresh=%v worn=%v", pf, pw)
	}
	if math.IsNaN(pf) || math.IsNaN(pw) {
		t.Fatalf("predictions must not be NaN")
	}
}

func TestProfileConfigDefaults(t *testing.T) {
	cfg := ProfileConfig{}.withDefaults()
	if cfg.Instance.Name != cloudsim.M3Medium.Name {
		t.Fatalf("default instance should be m3.medium")
	}
	if cfg.VMs != 4 || cfg.TargetFailures != 12 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.MaxHorizon != 24*simclock.Hour {
		t.Fatalf("default horizon = %v", cfg.MaxHorizon)
	}
}

func BenchmarkTrainToolchain(b *testing.B) {
	ds := syntheticDataset(400, 9)
	cfg := DefaultConfig()
	cfg.CVFolds = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Train(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
