package cloudsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/features"
	"repro/internal/simclock"
)

func testVMConfig() *VMConfig {
	return &VMConfig{
		Type:         M3Medium,
		Anomalies:    DefaultAnomalyProfile(),
		Failure:      DefaultFailurePoint(),
		Rejuvenation: DefaultRejuvenationModel(),
	}
}

func newTestVM(t *testing.T, id string) (*simclock.Engine, *VM) {
	t.Helper()
	eng := simclock.NewEngine(42)
	vm := NewVM(id, testVMConfig(), eng.RNG().Fork())
	return eng, vm
}

func TestInstanceTypeRelativeSpeed(t *testing.T) {
	if got := M3Medium.RelativeSpeed(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("m3.medium relative speed = %v, want 1.0", got)
	}
	if M3Small.RelativeSpeed() >= M3Medium.RelativeSpeed() {
		t.Fatalf("m3.small should be slower than m3.medium")
	}
	if PrivateVM.RelativeSpeed() <= M3Medium.RelativeSpeed() {
		t.Fatalf("2-core private VM should have more aggregate compute than 1-core m3.medium")
	}
}

func TestDefaultProfilesMatchPaper(t *testing.T) {
	p := DefaultAnomalyProfile()
	if p.LeakProbability != 0.10 {
		t.Errorf("leak probability = %v, want 0.10 (paper §VI-A)", p.LeakProbability)
	}
	if p.ThreadProbability != 0.05 {
		t.Errorf("thread probability = %v, want 0.05 (paper §VI-A)", p.ThreadProbability)
	}
	fp := DefaultFailurePoint()
	if fp.ResponseTimeSLAMs != 1000 {
		t.Errorf("response-time SLA = %v ms, want 1000 (paper's 1 s threshold)", fp.ResponseTimeSLAMs)
	}
}

func TestVMStateStrings(t *testing.T) {
	cases := map[VMState]string{
		StateStandby:      "STANDBY",
		StateActive:       "ACTIVE",
		StateRejuvenating: "REJUVENATING",
		StateFailed:       "FAILED",
		VMState(99):       "VMState(99)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("VMState(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestVMStartsStandbyAndActivates(t *testing.T) {
	eng, vm := newTestVM(t, "vm1")
	if vm.State() != StateStandby {
		t.Fatalf("new VM state = %v, want STANDBY", vm.State())
	}
	if !vm.Activate(eng) {
		t.Fatalf("Activate on standby VM should succeed")
	}
	if vm.State() != StateActive {
		t.Fatalf("state after Activate = %v, want ACTIVE", vm.State())
	}
	if vm.Activate(eng) {
		t.Fatalf("Activate on an already-active VM should be rejected")
	}
}

func TestVMDeactivate(t *testing.T) {
	eng, vm := newTestVM(t, "vm1")
	if vm.Deactivate() {
		t.Fatalf("Deactivate on standby VM should fail")
	}
	vm.Activate(eng)
	if !vm.Deactivate() {
		t.Fatalf("Deactivate on active VM should succeed")
	}
	if vm.State() != StateStandby {
		t.Fatalf("state after Deactivate = %v, want STANDBY", vm.State())
	}
}

func TestDispatchToInactiveVMDrops(t *testing.T) {
	eng, vm := newTestVM(t, "vm1")
	var out Outcome
	req := &Request{ID: 1, ServiceFactor: 1, Arrival: eng.Now(), OnDone: func(o Outcome) { out = o }}
	if vm.Dispatch(eng, req) {
		t.Fatalf("Dispatch to a STANDBY VM should be rejected")
	}
	if !out.Dropped {
		t.Fatalf("request dispatched to a STANDBY VM should be reported dropped")
	}
	if vm.DroppedRequests() != 1 {
		t.Fatalf("dropped counter = %d, want 1", vm.DroppedRequests())
	}
}

func TestVMServesRequestsAndRecordsResponseTimes(t *testing.T) {
	eng, vm := newTestVM(t, "vm1")
	vm.Activate(eng)

	const n = 200
	done := 0
	var totalResp float64
	for i := 0; i < n; i++ {
		delay := simclock.Duration(float64(i) * 0.05)
		eng.ScheduleFunc(delay, func(e *simclock.Engine) {
			req := &Request{ID: uint64(i), ServiceFactor: 1, Arrival: e.Now(),
				OnDone: func(o Outcome) {
					if !o.Dropped {
						done++
						totalResp += o.ResponseTime().Seconds()
					}
				}}
			vm.Dispatch(e, req)
		})
	}
	eng.RunUntilEmpty()

	if done == 0 {
		t.Fatalf("no requests completed")
	}
	if vm.Served() != uint64(done) {
		t.Fatalf("Served() = %d, want %d", vm.Served(), done)
	}
	mean := totalResp / float64(done)
	if mean <= 0 || mean > 2 {
		t.Fatalf("mean response time = %v s, want a small positive value", mean)
	}
	if vm.respEWMA <= 0 {
		t.Fatalf("the response-time EWMA should be positive after serving requests")
	}
}

func TestAnomalyAccumulationAndDegradation(t *testing.T) {
	eng, vm := newTestVM(t, "vm1")
	vm.Activate(eng)
	if vm.DegradationFactor() != 1 {
		t.Fatalf("fresh VM degradation = %v, want 1", vm.DegradationFactor())
	}

	// Serve enough requests that leaks must accumulate (10% of requests leak).
	for i := 0; i < 2000; i++ {
		delay := simclock.Duration(float64(i) * 0.1)
		eng.ScheduleFunc(delay, func(e *simclock.Engine) {
			vm.Dispatch(e, &Request{ID: uint64(i), ServiceFactor: 1, Arrival: e.Now()})
		})
	}
	eng.RunUntilEmpty()

	if vm.LeakedMB() <= 0 {
		t.Fatalf("after 2000 requests the VM should have leaked memory")
	}
	if vm.zombieThreads <= 0 {
		t.Fatalf("after 2000 requests the VM should have unterminated threads")
	}
	if vm.DegradationFactor() <= 1 {
		t.Fatalf("degradation factor should exceed 1 once anomalies accumulated, got %v", vm.DegradationFactor())
	}
	if h := vm.HealthFraction(); h <= 0 || h >= 1 {
		t.Fatalf("health fraction should be strictly between 0 and 1 mid-life, got %v", h)
	}
}

// TestPrepareBatchesKeepsDraws pins the prepared anomaly tables to the draws
// they replace: twin regions serve the same batches, of sizes below, at and
// past the prepared cap and past the inversion threshold, one region with
// PrepareBatches and one without, and end with the same anomaly state and
// the same VM streams.
func TestPrepareBatchesKeepsDraws(t *testing.T) {
	run := func(prepare bool) *Region {
		r := NewRegion(RegionConfig{
			Name:          "batch",
			Type:          M3Medium,
			InitialActive: 2,
			Failure:       FailurePoint{MemoryFraction: 1e9, ThreadFraction: 1e9},
		}, simclock.NewRNG(5))
		if prepare {
			r.PrepareBatches(64)
		}
		eng := simclock.NewEngine(1)
		for i, batch := range []int{2, 17, 36, 63, 64, 65, 128, 600, 5000} {
			for _, vm := range r.VMs() {
				vm.Dispatch(eng, &Request{ID: uint64(i), ServiceFactor: 1, Arrival: eng.Now(), Batch: batch})
			}
			eng.RunUntilEmpty()
		}
		return r
	}
	plain, prepared := run(false), run(true)
	if len(prepared.vmCfg.leakPow) != 65 || len(prepared.vmCfg.threadPow) != 65 || plain.vmCfg.leakPow != nil {
		t.Fatalf("tables: prepared %d/%d entries, want 65/65; unprepared %d, want none",
			len(prepared.vmCfg.leakPow), len(prepared.vmCfg.threadPow), len(plain.vmCfg.leakPow))
	}
	for i, vm := range prepared.VMs() {
		ref := plain.VMs()[i]
		if ref.leakedMB == 0 || ref.zombieThreads == 0 {
			t.Fatalf("%s injected no anomalies: leaked %v MB, %d zombie threads", ref.ID(), ref.leakedMB, ref.zombieThreads)
		}
		if vm.leakedMB != ref.leakedMB || vm.zombieThreads != ref.zombieThreads || vm.intervalAnomaly != ref.intervalAnomaly {
			t.Fatalf("%s: prepared leaked %v MB, %d threads, %d events; unprepared %v MB, %d threads, %d events",
				vm.ID(), vm.leakedMB, vm.zombieThreads, vm.intervalAnomaly, ref.leakedMB, ref.zombieThreads, ref.intervalAnomaly)
		}
		if vm.rng.Uint64() != ref.rng.Uint64() {
			t.Fatalf("%s: the prepared VM's stream diverged", vm.ID())
		}
	}
}

func TestVMReachesFailurePointUnderSustainedLoad(t *testing.T) {
	eng := simclock.NewEngine(7)
	cfg := testVMConfig()
	// Use the small private VM so the memory budget is exhausted quickly.
	cfg.Type = PrivateVM
	vm := NewVM("vm1", cfg, eng.RNG().Fork())
	vm.Activate(eng)

	var failedAt simclock.Time
	failures := 0
	vm.OnFailure = func(_ *VM, at simclock.Time) { failures++; failedAt = at }

	// Drive a sustained 10 req/s stream for up to 3 simulated hours.
	var inject func(e *simclock.Engine)
	id := uint64(0)
	inject = func(e *simclock.Engine) {
		if vm.State() != StateActive {
			return
		}
		id++
		vm.Dispatch(e, &Request{ID: id, ServiceFactor: 1, Arrival: e.Now()})
		e.ScheduleFunc(0.1, inject)
	}
	eng.ScheduleFunc(0, inject)
	if err := eng.Run(3 * simclock.Hour); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}

	if failures != 1 {
		t.Fatalf("expected exactly one failure, got %d", failures)
	}
	if vm.State() != StateFailed {
		t.Fatalf("state after failure = %v, want FAILED", vm.State())
	}
	if failedAt <= 0 {
		t.Fatalf("failure timestamp not recorded")
	}
	if vm.TrueRTTF(10) != 0 {
		t.Fatalf("TrueRTTF of a failed VM should be 0")
	}
}

func TestRejuvenationClearsAnomalies(t *testing.T) {
	eng, vm := newTestVM(t, "vm1")
	vm.Activate(eng)
	// Manually accumulate anomalies.
	vm.leakedMB = 500
	vm.zombieThreads = 20

	rejuvenated := false
	vm.OnRejuvenated = func(_ *VM, _ simclock.Time) { rejuvenated = true }

	if !vm.Rejuvenate(eng) {
		t.Fatalf("Rejuvenate should start")
	}
	if vm.State() != StateRejuvenating {
		t.Fatalf("state during rejuvenation = %v", vm.State())
	}
	if vm.Rejuvenate(eng) {
		t.Fatalf("a second Rejuvenate while rejuvenating should be rejected")
	}
	eng.RunUntilEmpty()

	if !rejuvenated {
		t.Fatalf("OnRejuvenated not invoked")
	}
	if vm.State() != StateStandby {
		t.Fatalf("state after rejuvenation = %v, want STANDBY", vm.State())
	}
	if vm.LeakedMB() != 0 || vm.zombieThreads != 0 {
		t.Fatalf("anomaly state should be cleared, got leaked=%v zombies=%d", vm.LeakedMB(), vm.zombieThreads)
	}
	if vm.Rejuvenations() != 1 {
		t.Fatalf("rejuvenation counter = %d, want 1", vm.Rejuvenations())
	}
}

func TestRejuvenationDropsQueuedRequests(t *testing.T) {
	eng, vm := newTestVM(t, "vm1")
	vm.Activate(eng)
	dropped := 0
	for i := 0; i < 5; i++ {
		vm.Dispatch(eng, &Request{ID: uint64(i), ServiceFactor: 1, Arrival: eng.Now(),
			OnDone: func(o Outcome) {
				if o.Dropped {
					dropped++
				}
			}})
	}
	vm.Rejuvenate(eng)
	eng.RunUntilEmpty()
	// The in-flight request (1 vCPU => 1 in service) is also dropped when the
	// VM is rejuvenating at completion time, so all 5 end up dropped.
	if dropped == 0 {
		t.Fatalf("queued requests should be dropped when rejuvenation starts")
	}
}

func TestRecoverFromFailure(t *testing.T) {
	eng, vm := newTestVM(t, "vm1")
	vm.Activate(eng)
	vm.fail(eng)
	if vm.State() != StateFailed {
		t.Fatalf("state = %v, want FAILED", vm.State())
	}
	if !vm.RecoverFromFailure(eng) {
		t.Fatalf("RecoverFromFailure should start a rejuvenation")
	}
	eng.RunUntilEmpty()
	if vm.State() != StateStandby {
		t.Fatalf("state after recovery = %v, want STANDBY", vm.State())
	}
	if vm.RecoverFromFailure(eng) {
		t.Fatalf("RecoverFromFailure on a healthy VM should be rejected")
	}
}

func TestTrueRTTFDecreasesWithAccumulation(t *testing.T) {
	_, vm := newTestVM(t, "vm1")
	fresh := vm.TrueRTTF(5)
	if math.IsInf(fresh, 1) || fresh <= 0 {
		t.Fatalf("fresh RTTF at 5 req/s should be finite and positive, got %v", fresh)
	}
	if !math.IsInf(vm.TrueRTTF(0), 1) {
		t.Fatalf("RTTF at zero rate should be +Inf")
	}
	vm.leakedMB = 0.5 * vm.memoryBudgetMB()
	worn := vm.TrueRTTF(5)
	if worn >= fresh {
		t.Fatalf("RTTF should decrease as anomalies accumulate: fresh=%v worn=%v", fresh, worn)
	}
	// Higher request rate -> faster consumption -> lower RTTF.
	if vm.TrueRTTF(10) >= worn {
		t.Fatalf("RTTF should decrease with higher request rate")
	}
}

func TestSampleProducesFullFeatureVector(t *testing.T) {
	eng, vm := newTestVM(t, "vm1")
	vm.Activate(eng)
	for i := 0; i < 50; i++ {
		delay := simclock.Duration(float64(i) * 0.2)
		eng.ScheduleFunc(delay, func(e *simclock.Engine) {
			vm.Dispatch(e, &Request{ID: uint64(i), ServiceFactor: 1, Arrival: e.Now()})
		})
	}
	eng.RunUntilEmpty()

	v := vm.Sample(eng.Now(), features.All)
	if v.VM != "vm1" {
		t.Fatalf("sample VM = %q", v.VM)
	}
	// Every feature has a slot: a SetSlot/Get round trip over the full set
	// returns each value, on a copy so the sample itself stays intact.
	w := v
	for i := range features.NumFeatures {
		w.SetSlot(i, float64(i)+0.5)
	}
	for i, name := range features.AllNames() {
		if got := w.Get(name); got != float64(i)+0.5 {
			t.Errorf("feature %s round trip = %v, want %v", name, got, float64(i)+0.5)
		}
	}
	if v.Get(features.RequestRate) <= 0 {
		t.Errorf("request rate feature should be positive after serving requests")
	}
	if v.Get(features.ResponseTimeMs) <= 0 {
		t.Errorf("response time feature should be positive after serving requests")
	}
	if v.Get(features.MemUsedMB) <= 0 {
		t.Errorf("memory used should be positive")
	}

	// A second sample immediately after reset sees an empty interval.
	v2 := vm.Sample(eng.Now(), features.All)
	if v2.Get(features.RequestRate) != 0 {
		t.Errorf("request rate should reset between samples, got %v", v2.Get(features.RequestRate))
	}
}

// TestSampleMaskKeepsRNGStream checks that the mask changes which features a
// sample measures, never the VM's random stream: two identically built and
// driven VMs, one sampled with every feature and one with the oracle
// controller's mask, agree bit for bit on every masked slot, leave the other
// slots 0, and draw the same next 1,000 values.  It covers a fresh VM, whose
// zero swap draws no noise, and one past the swap threshold, whose swap
// noise is drawn (or skipped) like any other feature.  Each VM is sampled
// right after serving traffic and again over an empty interval, where the
// rate-driven features are 0 and draw nothing.  Independently of masks, each
// sample must draw exactly one Normal per non-zero noisy feature, the rule
// every golden was recorded under.
func TestSampleMaskKeepsRNGStream(t *testing.T) {
	oracle := features.MaskOf(features.RequestRate, features.ResponseTimeMs)
	noisy := features.All &^ features.MaskOf(features.ZombieThreads, features.CPUTimeSec,
		features.QueueLength, features.UptimeSec, features.AnomalyEventRate)
	for _, tc := range []struct {
		name     string
		leakedMB float64
	}{
		{"no-swap", 0},
		{"swapping", 0.6 * M3Medium.MemoryMB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// run returns the two samples, the VM's generator and its state
			// before, between and after them.
			run := func(mask features.Mask) ([2]features.Vector, *simclock.RNG, [3]simclock.RNG) {
				eng := simclock.NewEngine(42)
				rng := simclock.NewRNG(9)
				vm := NewVM("vm1", testVMConfig(), rng)
				vm.leakedMB = tc.leakedMB
				vm.Activate(eng)
				for i := 0; i < 50; i++ {
					eng.ScheduleFunc(simclock.Duration(float64(i)*0.2), func(e *simclock.Engine) {
						vm.Dispatch(e, &Request{ID: uint64(i), ServiceFactor: 1, Arrival: e.Now()})
					})
				}
				eng.RunUntilEmpty()
				var samples [2]features.Vector
				var states [3]simclock.RNG
				for k := range samples {
					states[k] = *rng
					samples[k] = vm.Sample(eng.Now(), mask)
				}
				states[2] = *rng
				return samples, rng, states
			}
			full, fullRNG, fullStates := run(features.All)
			masked, maskedRNG, _ := run(oracle)
			if swap := full[0].Get(features.SwapUsedMB); (tc.leakedMB > 0) != (swap > 0) {
				t.Fatalf("swap_used_mb = %v with %v MB leaked", swap, tc.leakedMB)
			}
			if full[0].Get(features.RequestRate) <= 0 || full[1].Get(features.RequestRate) != 0 {
				t.Fatalf("request rate %v then %v, want positive then 0",
					full[0].Get(features.RequestRate), full[1].Get(features.RequestRate))
			}
			for k := range full {
				for _, n := range features.AllNames() {
					want := 0.0
					if oracle&features.MaskOf(n) != 0 {
						want = full[k].Get(n)
					}
					if got := masked[k].Get(n); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("sample %d %s = %v, want %v", k, n, got, want)
					}
				}
			}
			for k := range full {
				ref := fullStates[k]
				for _, n := range features.AllNames() {
					if noisy&features.MaskOf(n) != 0 && full[k].Get(n) != 0 {
						ref.Normal(0, 1)
					}
				}
				if ref != fullStates[k+1] {
					t.Errorf("sample %d did not draw exactly one Normal per non-zero noisy feature", k)
				}
			}
			for i := 0; i < 1000; i++ {
				if a, b := fullRNG.Uint64(), maskedRNG.Uint64(); a != b {
					t.Fatalf("draw %d after sampling: full mask %x, oracle mask %x", i, a, b)
				}
			}
		})
	}
}

func TestRegionInitialPools(t *testing.T) {
	rng := simclock.NewRNG(1)
	r := NewRegion(PaperRegionConfig(PaperRegion1), rng)
	if got := len(r.ActiveVMs()); got != 6 {
		t.Fatalf("region1 active VMs = %d, want 6 (paper §VI-A)", got)
	}
	if got := len(r.byState(StateStandby)); got != 3 {
		t.Fatalf("region1 standby VMs = %d, want 3", got)
	}
	r2 := NewRegion(PaperRegionConfig(PaperRegion2), rng)
	if got := len(r2.ActiveVMs()); got != 12 {
		t.Fatalf("region2 active VMs = %d, want 12", got)
	}
	r3 := NewRegion(PaperRegionConfig(PaperRegion3), rng)
	if got := len(r3.ActiveVMs()); got != 4 {
		t.Fatalf("region3 active VMs = %d, want 4", got)
	}
	if r3.Config().Type.VCPUs != 2 || r3.Config().Type.MemoryMB != 1024 {
		t.Fatalf("region3 VM spec should be 2 vCPU / 1 GB, got %+v", r3.Config().Type)
	}
}

func TestRegionVMNamesAndLookup(t *testing.T) {
	r := NewRegion(PaperRegionConfig(PaperRegion3), simclock.NewRNG(1))
	vm := r.VMs()[0]
	if r.VM(vm.ID()) != vm {
		t.Fatalf("VM lookup by ID failed")
	}
	if r.VM("nonexistent") != nil {
		t.Fatalf("lookup of unknown VM should return nil")
	}
}

func TestRegionProvisionRespectsCap(t *testing.T) {
	cfg := PaperRegionConfig(PaperRegion3) // 4+2 VMs, cap 12
	r := NewRegion(cfg, simclock.NewRNG(1))
	if !r.CanProvision() {
		t.Fatalf("region should be able to provision below the cap")
	}
	added := r.Provision(100)
	if len(r.VMs()) != 12 {
		t.Fatalf("pool size after provisioning = %d, want cap 12", len(r.VMs()))
	}
	if len(added) != 6 {
		t.Fatalf("provisioned %d VMs, want 6", len(added))
	}
	for _, vm := range added {
		if vm.State() != StateStandby {
			t.Fatalf("provisioned VM should start STANDBY, got %v", vm.State())
		}
	}
	if r.CanProvision() {
		t.Fatalf("region at the cap should not provision more")
	}
	if more := r.Provision(1); len(more) != 0 {
		t.Fatalf("provisioning past the cap should return no VMs")
	}
}

func TestRegionComputeCapacityOrdering(t *testing.T) {
	r1 := NewRegion(PaperRegionConfig(PaperRegion1), simclock.NewRNG(1))
	r2 := NewRegion(PaperRegionConfig(PaperRegion2), simclock.NewRNG(2))
	r3 := NewRegion(PaperRegionConfig(PaperRegion3), simclock.NewRNG(3))
	c1, c2, c3 := r1.ComputeCapacity(), r2.ComputeCapacity(), r3.ComputeCapacity()
	if c1 <= 0 || c2 <= 0 || c3 <= 0 {
		t.Fatalf("capacities should be positive: %v %v %v", c1, c2, c3)
	}
	// Region 2 has 12 VMs (albeit small ones) and should out-muscle region 3's
	// 4 private VMs; region 3 is the smallest pool.
	if !(c3 < c1 && c3 < c2) {
		t.Fatalf("region 3 should have the least capacity: c1=%v c2=%v c3=%v", c1, c2, c3)
	}
}

func TestRegionTrueRMTTFHeterogeneity(t *testing.T) {
	r1 := NewRegion(PaperRegionConfig(PaperRegion1), simclock.NewRNG(1))
	r3 := NewRegion(PaperRegionConfig(PaperRegion3), simclock.NewRNG(3))
	// Under the same region-level request rate, the larger region (more VMs,
	// more memory headroom per VM) must show a higher mean time to failure.
	rate := 20.0
	if r1.TrueRMTTF(rate) <= r3.TrueRMTTF(rate) {
		t.Fatalf("region1 RMTTF should exceed region3 RMTTF at equal rate: r1=%v r3=%v",
			r1.TrueRMTTF(rate), r3.TrueRMTTF(rate))
	}
	if r1.TrueRMTTF(0) == 0 {
		t.Fatalf("RMTTF at zero rate should not be zero")
	}
	empty := NewRegion(RegionConfig{Name: "empty", Type: M3Medium}, simclock.NewRNG(9))
	if empty.TrueRMTTF(rate) != 0 {
		t.Fatalf("RMTTF of a region with no active VMs should be 0")
	}
}

func TestRegionStatsAndCost(t *testing.T) {
	eng := simclock.NewEngine(11)
	r := NewRegion(PaperRegionConfig(PaperRegion1), eng.RNG().Fork())
	vm := r.ActiveVMs()[0]
	vm.Dispatch(eng, &Request{ID: 1, ServiceFactor: 1, Arrival: eng.Now()})
	eng.RunUntilEmpty()

	s := r.Stats()
	if s.Region != "region1" || s.VMs != 9 || s.Active != 6 || s.Standby != 3 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	if s.Served != 1 {
		t.Fatalf("served = %d, want 1", s.Served)
	}
	if s.String() == "" {
		t.Fatalf("stats string should not be empty")
	}
}

func TestPaperTestbedConstruction(t *testing.T) {
	regions := PaperTestbed(99, PaperRegion3, PaperRegion1, PaperRegion2)
	if len(regions) != 3 {
		t.Fatalf("testbed regions = %d, want 3", len(regions))
	}
	// Regions come back sorted by paper index regardless of argument order.
	if regions[0].Name() != "region1" || regions[1].Name() != "region2" || regions[2].Name() != "region3" {
		t.Fatalf("unexpected region order: %s %s %s", regions[0].Name(), regions[1].Name(), regions[2].Name())
	}
}

func TestPaperRegionConfigPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for unknown paper region")
		}
	}()
	PaperRegionConfig(PaperRegion(42))
}

// Property: the health fraction is always within [0,1] and the degradation
// factor is always >= 1, no matter how much anomaly state is loaded onto the
// VM.
func TestHealthAndDegradationBoundsProperty(t *testing.T) {
	f := func(leak uint16, zombies uint8) bool {
		vm := NewVM("p", testVMConfig(), simclock.NewRNG(3))
		vm.leakedMB = float64(leak)
		vm.zombieThreads = int(zombies)
		h := vm.HealthFraction()
		d := vm.DegradationFactor()
		return h >= 0 && h <= 1 && d >= 1 && !math.IsNaN(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: TrueRTTF is non-negative and monotonically non-increasing in the
// request rate.
func TestTrueRTTFMonotoneProperty(t *testing.T) {
	f := func(leak uint16, rate1, rate2 uint8) bool {
		vm := NewVM("p", testVMConfig(), simclock.NewRNG(3))
		vm.leakedMB = float64(leak) / 20
		lo := float64(rate1%50) + 1
		hi := lo + float64(rate2%50) + 1
		a, b := vm.TrueRTTF(lo), vm.TrueRTTF(hi)
		return a >= 0 && b >= 0 && b <= a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// serveLoop returns one Dispatch → service → completion round on an ACTIVE
// VM with a request recycled through a RequestPool, the way the workload
// generators drive it.  The VM injects no anomalies, so it never reaches its
// failure point and every round is a full service.
func serveLoop() (*VM, func()) {
	cfg := testVMConfig()
	cfg.Anomalies = AnomalyProfile{}
	eng := simclock.NewEngine(1)
	vm := NewVM("serve", cfg, eng.RNG().Fork())
	vm.Activate(eng)
	var pool RequestPool
	done := func(o Outcome) { pool.Put(o.Request) }
	id := uint64(0)
	return vm, func() {
		id++
		req := pool.Get()
		req.ID, req.ServiceFactor, req.Arrival, req.OnDone = id, 1, eng.Now(), done
		vm.Dispatch(eng, req)
		eng.Step()
	}
}

func BenchmarkVMServeRequest(b *testing.B) {
	_, serve := serveLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

func TestVMServeRequestAllocationFree(t *testing.T) {
	vm, serve := serveLoop()
	serve() // grow the queue, the heap and the free list once
	if allocs := testing.AllocsPerRun(1000, serve); allocs != 0 {
		t.Fatalf("Dispatch → service → completion allocates %.1f times per request, want 0", allocs)
	}
	if vm.Served() != 1002 {
		t.Fatalf("served %d requests, want 1002 (warm-up + AllocsPerRun's 1001 runs)", vm.Served())
	}
}

func TestRequestPoolResetsAndGuardsRelease(t *testing.T) {
	var pool RequestPool
	req := pool.Get()
	req.ID, req.ServiceFactor, req.Batch = 7, 2, 3
	req.OnDone = func(Outcome) {}
	pool.Put(req)
	again := pool.Get()
	if again != req {
		t.Fatal("Get should hand back the released request")
	}
	if again.ID != 0 || again.ServiceFactor != 0 || again.Batch != 0 || again.OnDone != nil || again.released {
		t.Fatalf("a reused request must have every field reset, got %+v", *again)
	}
	pool.Put(req)
	mustPanicReleased := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != ErrRequestReleased {
				t.Fatalf("%s: recovered %v, want ErrRequestReleased", what, r)
			}
		}()
		fn()
	}
	mustPanicReleased("Finish", func() { req.Finish(simclock.NewEngine(1), Outcome{Request: req}) })
	mustPanicReleased("second Put", func() { pool.Put(req) })
}
