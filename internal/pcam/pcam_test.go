package pcam

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/features"
	"repro/internal/simclock"
	"repro/internal/workload"
)

func testRegion(seed uint64) *cloudsim.Region {
	cfg := cloudsim.RegionConfig{
		Name:           "region3",
		Provider:       "private",
		Location:       "Munich",
		Type:           cloudsim.PrivateVM,
		InitialActive:  4,
		InitialStandby: 2,
	}.WithDefaults()
	return cloudsim.NewRegion(cfg, simclock.NewRNG(seed))
}

func newTestVMC(t *testing.T, region *cloudsim.Region, pred RTTFPredictor, cfg Config) *VMC {
	t.Helper()
	vmc, err := NewVMC(region, pred, cfg)
	if err != nil {
		t.Fatalf("NewVMC: %v", err)
	}
	return vmc
}

func TestNewVMCValidation(t *testing.T) {
	if _, err := NewVMC(nil, OraclePredictor{}, Config{}); err == nil {
		t.Errorf("nil region should be rejected")
	}
	if _, err := NewVMC(testRegion(1), nil, Config{}); err == nil {
		t.Errorf("nil predictor should be rejected")
	}
	vmc, err := NewVMC(testRegion(1), OraclePredictor{}, Config{})
	if err != nil {
		t.Fatalf("NewVMC: %v", err)
	}
	cfg := vmc.Config()
	if cfg.RTTFThreshold != 600 || cfg.MinActive != 1 || cfg.RMTTFBeta != 0.5 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	// Out-of-range values are rejected by name, not replaced by defaults.
	for _, tc := range []struct {
		cfg   Config
		field string
	}{
		{Config{RMTTFBeta: 1.5}, "RMTTFBeta"},
		{Config{RMTTFBeta: -0.5}, "RMTTFBeta"},
		{Config{RMTTFBeta: math.NaN()}, "RMTTFBeta"},
		{Config{RTTFThreshold: -10}, "RTTFThreshold"},
		{Config{RTTFThreshold: math.NaN()}, "RTTFThreshold"},
		{Config{ControlInterval: -simclock.Second}, "ControlInterval"},
		{Config{ResponseTimeThreshold: -1}, "ResponseTimeThreshold"},
		{Config{MinActive: -1}, "MinActive"},
		{Config{TargetActive: -2}, "TargetActive"},
		{Config{ScaleDownRMTTF: -1}, "ScaleDownRMTTF"},
	} {
		if _, err := NewVMC(testRegion(1), OraclePredictor{}, tc.cfg); err == nil || !strings.Contains(err.Error(), "pcam: "+tc.field) {
			t.Errorf("NewVMC(%+v) error %v, want one naming %s", tc.cfg, err, tc.field)
		}
	}
	vmc, err = NewVMC(testRegion(1), OraclePredictor{}, Config{RMTTFBeta: 1})
	if err != nil || vmc.Config().RMTTFBeta != 1 {
		t.Fatalf("RMTTFBeta 1 lies in (0, 1] and must be kept, got err %v", err)
	}
}

func TestDefaultConfigMatchesPaperSLA(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ResponseTimeThreshold != 1.0 {
		t.Fatalf("response time threshold = %v, want the paper's 1 s SLA", cfg.ResponseTimeThreshold)
	}
	if !cfg.ElasticityEnabled {
		t.Fatalf("elasticity should be enabled by default")
	}
}

func TestPredictorAdapters(t *testing.T) {
	vm := cloudsim.NewVM("x", &cloudsim.VMConfig{Type: cloudsim.M3Medium,
		Anomalies: cloudsim.DefaultAnomalyProfile(), Failure: cloudsim.DefaultFailurePoint()}, *simclock.NewRNG(1))
	sample := features.NewVector("x", 0)
	sample.SetSlot(features.SlotRequestRate, 5)

	fn := PredictorFunc(func(*cloudsim.VM, features.Vector) float64 { return 42 })
	if got := fn.PredictRTTF(vm, sample); got != 42 {
		t.Fatalf("PredictorFunc = %v", got)
	}

	oracle := OraclePredictor{}
	if got := oracle.PredictRTTF(vm, sample); got <= 0 {
		t.Fatalf("oracle prediction should be positive for a healthy VM, got %v", got)
	}
	idle := features.NewVector("x", 0) // zero request rate => infinite true RTTF
	if got := oracle.PredictRTTF(vm, idle); got != OracleMaxRTTF {
		t.Fatalf("oracle should cap the idle-VM horizon at OracleMaxRTTF, got %v", got)
	}

	mp := ModelPredictor{Model: constModel{value: 99}}
	if got := mp.PredictRTTF(vm, sample); got != 99 {
		t.Fatalf("ModelPredictor = %v", got)
	}
}

type constModel struct{ value float64 }

func (c constModel) PredictRTTF(features.Vector) float64 { return c.value }

func TestSubmitBalancesAcrossActiveVMs(t *testing.T) {
	eng := simclock.NewEngine(3)
	region := testRegion(3)
	vmc := newTestVMC(t, region, OraclePredictor{}, Config{})

	const n = 400
	for i := 0; i < n; i++ {
		delay := simclock.Duration(float64(i) * 0.02)
		eng.ScheduleFunc(delay, func(e *simclock.Engine) {
			vmc.Submit(e, &cloudsim.Request{ID: uint64(i), ServiceFactor: 1, Arrival: e.Now()})
		})
	}
	eng.RunUntilEmpty()

	// Every active VM should have served a meaningful share.
	for _, vm := range region.ActiveVMs() {
		if vm.Served() < uint64(n/len(region.ActiveVMs())/4) {
			t.Fatalf("VM %s served only %d of %d requests: balancing is broken", vm.ID(), vm.Served(), n)
		}
	}
}

func TestSubmitWithNoActiveVMsDrops(t *testing.T) {
	eng := simclock.NewEngine(4)
	region := cloudsim.NewRegion(cloudsim.RegionConfig{
		Name: "empty", Type: cloudsim.M3Medium, InitialActive: 0, InitialStandby: 1,
	}.WithDefaults(), simclock.NewRNG(4))
	vmc := newTestVMC(t, region, OraclePredictor{}, Config{})

	dropped := false
	vmc.Submit(eng, &cloudsim.Request{ID: 1, ServiceFactor: 1, Arrival: eng.Now(),
		OnDone: func(o cloudsim.Outcome) { dropped = o.Dropped }})
	if !dropped {
		t.Fatalf("request to a region with no active VMs should be dropped")
	}
}

func TestProactiveRejuvenationTriggersBeforeFailure(t *testing.T) {
	eng := simclock.NewEngine(5)
	region := testRegion(5)
	cfg := DefaultConfig()
	cfg.RTTFThreshold = 900
	cfg.ControlInterval = 30 * simclock.Second
	cfg.ElasticityEnabled = false
	vmc := newTestVMC(t, region, OraclePredictor{}, cfg)
	vmc.Start(eng)
	vmc.Start(eng) // idempotent

	// Drive sustained traffic through the VMC's load balancer.
	metrics := workload.NewMetrics()
	gen := workload.NewOpenLoop(workload.OpenLoopConfig{Region: "region3", RatePerSec: 18},
		simclock.NewRNG(55), DispatcherAdapter(vmc), metrics)
	gen.Start(eng)
	if err := eng.Run(4 * simclock.Hour); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	vmc.Stop()

	st := vmc.Stats()
	if st.ControlTicks == 0 {
		t.Fatalf("control loop never ran")
	}
	if st.ProactiveRejuvenations == 0 {
		t.Fatalf("with a perfect predictor and heavy load, proactive rejuvenation should trigger; stats=%+v", st)
	}
	// The whole point of the proactive approach: (almost) no reactive
	// recoveries because VMs are rejuvenated before their failure point.
	if st.ReactiveRecoveries > st.ProactiveRejuvenations {
		t.Fatalf("reactive recoveries (%d) should not dominate proactive rejuvenations (%d)",
			st.ReactiveRecoveries, st.ProactiveRejuvenations)
	}
	if vmc.RMTTF() <= 0 {
		t.Fatalf("RMTTF should be positive after control ticks")
	}
	if vmc.lastRMTTF <= 0 {
		t.Fatalf("raw RMTTF should be positive")
	}
	if metrics.Completed("") == 0 {
		t.Fatalf("clients should have completed requests")
	}
}

func TestReactiveRecoveryWhenPredictorIsBlind(t *testing.T) {
	eng := simclock.NewEngine(6)
	region := testRegion(6)
	// A predictor that always reports a huge RTTF: proactive rejuvenation
	// never triggers, so VMs crash and the reactive path must take over.
	blind := PredictorFunc(func(*cloudsim.VM, features.Vector) float64 { return 1e9 })
	cfg := DefaultConfig()
	cfg.ElasticityEnabled = false
	vmc := newTestVMC(t, region, blind, cfg)
	vmc.Start(eng)

	gen := workload.NewOpenLoop(workload.OpenLoopConfig{Region: "region3", RatePerSec: 18},
		simclock.NewRNG(66), DispatcherAdapter(vmc), workload.NewMetrics())
	gen.Start(eng)
	if err := eng.Run(5 * simclock.Hour); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	vmc.Stop()

	st := vmc.Stats()
	if st.ProactiveRejuvenations != 0 {
		t.Fatalf("blind predictor should never trigger proactive rejuvenation")
	}
	if st.ReactiveRecoveries == 0 {
		t.Fatalf("VMs should have crashed and been recovered reactively")
	}
	if st.Activations == 0 {
		t.Fatalf("standby VMs should have been activated to replace crashed ones")
	}
}

func TestElasticityAddsVMsUnderOverload(t *testing.T) {
	eng := simclock.NewEngine(7)
	// A tiny region with one active VM and plenty of provisioning headroom.
	// Anomalies and the SLA failure clause are effectively disabled so the
	// test isolates the ADDVMS elasticity path from the rejuvenation path.
	region := cloudsim.NewRegion(cloudsim.RegionConfig{
		Name: "tiny", Type: cloudsim.PrivateVM, InitialActive: 1, InitialStandby: 1, MaxVMs: 8,
		Anomalies: cloudsim.AnomalyProfile{LeakProbability: 0, LeakSizeMB: 0.001, ThreadProbability: 0, ThreadStackMB: 0.001},
		Failure:   cloudsim.FailurePoint{MemoryFraction: 0.7, ThreadFraction: 0.8, ResponseTimeSLAMs: 0},
	}.WithDefaults(), simclock.NewRNG(7))
	cfg := DefaultConfig()
	cfg.ResponseTimeThreshold = 0.5
	vmc := newTestVMC(t, region, OraclePredictor{}, cfg)
	vmc.Start(eng)

	// Overload: 80 req/s against a single VM that can serve ~28 req/s; even
	// two VMs cannot keep up, so the controller must provision a third.
	gen := workload.NewOpenLoop(workload.OpenLoopConfig{Region: "tiny", RatePerSec: 80},
		simclock.NewRNG(77), DispatcherAdapter(vmc), workload.NewMetrics())
	gen.Start(eng)
	if err := eng.Run(30 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	vmc.Stop()

	st := vmc.Stats()
	if st.Activations == 0 {
		t.Fatalf("overload should have activated the standby VM")
	}
	if vmc.ActiveVMs() <= 1 {
		t.Fatalf("active pool should have grown beyond 1, got %d", vmc.ActiveVMs())
	}
	if st.ProvisionedVMs == 0 {
		t.Fatalf("once standbys ran out, ADDVMS should have provisioned new VMs")
	}
	if len(region.VMs()) <= 2 {
		t.Fatalf("region pool should have grown beyond the initial 2 VMs")
	}
}

func TestScaleDownWhenRMTTFHigh(t *testing.T) {
	eng := simclock.NewEngine(8)
	region := testRegion(8)
	cfg := DefaultConfig()
	cfg.ScaleDownRMTTF = 1 // any healthy region exceeds this immediately
	cfg.MinActive = 2
	vmc := newTestVMC(t, region, OraclePredictor{}, cfg)
	vmc.Start(eng)

	// Light traffic: RMTTF stays enormous, so the controller should shed VMs
	// down to MinActive.
	gen := workload.NewOpenLoop(workload.OpenLoopConfig{Region: "region3", RatePerSec: 1},
		simclock.NewRNG(88), DispatcherAdapter(vmc), workload.NewMetrics())
	gen.Start(eng)
	if err := eng.Run(30 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	vmc.Stop()

	if vmc.ActiveVMs() != cfg.MinActive {
		t.Fatalf("active VMs = %d, want MinActive = %d", vmc.ActiveVMs(), cfg.MinActive)
	}
}

func TestPredictedRTTFExposed(t *testing.T) {
	eng := simclock.NewEngine(9)
	region := testRegion(9)
	rec := recordPredictions(PredictorFunc(func(vm *cloudsim.VM, _ features.Vector) float64 { return 1234 }), region)
	vmc := newTestVMC(t, region, rec, Config{ElasticityEnabled: false})
	vmc.ControlTick(eng)
	for _, vm := range region.ActiveVMs() {
		if got := rec.PredictedRTTF(vm.ID()); got != 1234 {
			t.Fatalf("PredictedRTTF(%s) = %v, want 1234", vm.ID(), got)
		}
	}
	if got := rec.PredictedRTTF("unknown"); got != 0 {
		t.Fatalf("unknown VM should report 0, got %v", got)
	}
}

func TestControlTickWithNoActiveVMsPromotesStandby(t *testing.T) {
	eng := simclock.NewEngine(10)
	region := cloudsim.NewRegion(cloudsim.RegionConfig{
		Name: "r", Type: cloudsim.M3Medium, InitialActive: 0, InitialStandby: 2,
	}.WithDefaults(), simclock.NewRNG(10))
	vmc := newTestVMC(t, region, OraclePredictor{}, Config{})
	vmc.ControlTick(eng)
	if len(region.ActiveVMs()) != 1 {
		t.Fatalf("a control tick on a region with no active VMs should promote a standby")
	}
}

// DispatcherAdapter adapts a *VMC to the workload.Dispatcher interface used
// by the emulated browsers (kept as a helper so tests and higher layers share
// the same glue).
func DispatcherAdapter(v *VMC) workload.Dispatcher {
	return workload.DispatcherFunc(func(eng *simclock.Engine, req *cloudsim.Request) { v.Submit(eng, req) })
}

func BenchmarkControlTick(b *testing.B) {
	eng := simclock.NewEngine(1)
	region := testRegion(1)
	vmc, err := NewVMC(region, OraclePredictor{}, Config{ElasticityEnabled: false})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vmc.ControlTick(eng)
	}
}
