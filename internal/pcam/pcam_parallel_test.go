package pcam

import (
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/features"
	"repro/internal/simclock"
)

// tickFingerprint captures everything observable about one finished VMC run,
// so two runs can be compared for byte-level equivalence.
type tickFingerprint struct {
	VMCStats   Stats
	RMTTF      float64
	LastRaw    float64
	Region     cloudsim.Stats
	Shards     []cloudsim.Stats
	Predicted  map[string]float64
	VMStates   map[string]cloudsim.VMState
	QueueSizes map[string]int
}

// runShardedTicks drives a fixed traffic pattern through an 8-shard region
// on a sharded event loop with the given worker count — the count the
// control tick's per-shard phase fans out over — for ten control intervals
// and fingerprints the outcome.
func runShardedTicks(t *testing.T, workers int) tickFingerprint {
	t.Helper()
	const shards = 8
	se := simclock.NewShardedEngine(shards, 77, 0, workers)
	region := shardedRegion(77, shards, 16, 8)
	// Pre-age a quarter of the active pool so the run includes proactive
	// rejuvenations and standby promotions, not just sampling.  The oracle
	// caps healthy predictions at OracleMaxRTTF (3600 s), so a threshold of
	// 3000 s cleanly separates the aged VMs (~2300 s at this request rate)
	// from the rest.
	for i, vm := range region.ActiveVMs() {
		if i%4 == 0 {
			vm.PreAge(0.9)
		}
	}
	rec := recordPredictions(OraclePredictor{}, region)
	vmc := newTestVMC(t, region, rec, Config{
		ElasticityEnabled: false,
		ControlInterval:   30 * simclock.Second,
		RTTFThreshold:     3000,
	})
	engines := make([]*simclock.Engine, shards)
	for s := range engines {
		engines[s] = se.Shard(s)
	}
	vmc.StartSharded(se, engines)
	const n = 6000
	for i := 0; i < n; i++ {
		at := simclock.Duration(float64(i) * 300.0 / n)
		id := uint64(i)
		shard := i % shards
		engines[shard].ScheduleFunc(at, func(e *simclock.Engine) {
			region.SubmitShard(e, shard, &cloudsim.Request{ID: id, ServiceFactor: 1, Arrival: e.Now()})
		})
	}
	if err := se.Run(10 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
		t.Fatal(err)
	}
	vmc.Stop()

	fp := tickFingerprint{
		VMCStats:   vmc.Stats(),
		RMTTF:      vmc.RMTTF(),
		LastRaw:    vmc.lastRMTTF,
		Region:     region.Stats(),
		Shards:     region.ShardStats(),
		Predicted:  map[string]float64{},
		VMStates:   map[string]cloudsim.VMState{},
		QueueSizes: map[string]int{},
	}
	for _, vm := range region.VMs() {
		fp.Predicted[vm.ID()] = rec.PredictedRTTF(vm.ID())
		fp.VMStates[vm.ID()] = vm.State()
		fp.QueueSizes[vm.ID()] = vm.QueueLength()
	}
	if fp.VMCStats.ControlTicks == 0 {
		t.Fatal("run executed no control ticks")
	}
	if fp.Region.Served == 0 {
		t.Fatal("run served no requests")
	}
	return fp
}

// TestControlTickParallelEquivalence is the unit-level determinism pin of the
// parallel control tick: an identical 8-shard deployment driven by identical
// traffic ends in exactly the same state — controller counters, smoothed and
// raw RMTTF, per-shard statistics, per-VM predictions, states and queues —
// whether the event loop, and with it the tick's per-shard phase, runs
// inline (1 worker) or on 4 or GOMAXPROCS goroutines.  Run under -race this
// doubles as the cross-shard mutation audit.
func TestControlTickParallelEquivalence(t *testing.T) {
	want := runShardedTicks(t, 1)
	counts := []int{4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		got := runShardedTicks(t, workers)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%d workers diverged from the inline tick:\ninline:   %+v\nparallel: %+v", workers, want, got)
		}
	}
	if want.VMCStats.ProactiveRejuvenations == 0 {
		t.Fatal("fixture exercised no proactive rejuvenations; the equivalence would be vacuous")
	}
}

// TestControlTickParallelPhaseEngaged verifies the tick's per-shard phase
// runs on the event loop's worker pool exactly when it runs sharded on more
// than one worker: never on a standalone engine, never on one worker.  The
// pool exists only inside ShardedEngine.Run, so the tick is driven through
// Run, and the predictor records whether it ran off Run's goroutine.
func TestControlTickParallelPhaseEngaged(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int // event-loop workers; 0 runs a standalone engine
		want    bool
	}{{"standalone", 0, false}, {"sharded/1", 1, false}, {"sharded/4", 4, true}} {
		const shards = 4
		region := shardedRegion(3, shards, 8, 4)
		runG := goroutineID()
		var calls, offRun atomic.Int32
		pred := PredictorFunc(func(vm *cloudsim.VM, sample features.Vector) float64 {
			calls.Add(1)
			if goroutineID() != runG {
				offRun.Add(1)
			}
			return OraclePredictor{}.PredictRTTF(vm, sample)
		})
		vmc := newTestVMC(t, region, pred, Config{ElasticityEnabled: false})
		interval := vmc.Config().ControlInterval
		var err error
		if tc.workers == 0 {
			eng := simclock.NewEngine(3)
			vmc.Start(eng)
			err = eng.Run(interval)
		} else {
			se := simclock.NewShardedEngine(shards, 3, 0, tc.workers)
			engines := make([]*simclock.Engine, shards)
			for s := range engines {
				engines[s] = se.Shard(s)
			}
			vmc.StartSharded(se, engines)
			err = se.Run(interval)
		}
		vmc.Stop()
		if err != nil && err != simclock.ErrHorizonReached {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		if vmc.Stats().ControlTicks != 1 || calls.Load() == 0 {
			t.Fatalf("%s: %d ticks made %d predictions, want one tick that predicts", tc.name, vmc.Stats().ControlTicks, calls.Load())
		}
		if got := offRun.Load() > 0; got != tc.want {
			t.Fatalf("%s: predictor ran on a pool worker = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// goroutineID returns the calling goroutine's number, read from the header
// line of its stack trace ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestControlTickShardedAllocatesNothing pins that a sharded VMC's tick,
// with its per-shard phase handed to ShardedEngine.ParallelPhase, reuses
// its scratch and its phase function instead of allocating per tick.
func TestControlTickShardedAllocatesNothing(t *testing.T) {
	const shards = 4
	se := simclock.NewShardedEngine(shards, 5, 0, 1)
	vmc := newTestVMC(t, shardedRegion(5, shards, 8, 4), OraclePredictor{}, Config{ElasticityEnabled: false})
	engines := make([]*simclock.Engine, shards)
	for s := range engines {
		engines[s] = se.Shard(s)
	}
	vmc.StartSharded(se, engines)
	vmc.ControlTick(se.Control()) // sizes the per-shard scratch buffers
	if allocs := testing.AllocsPerRun(20, func() { vmc.ControlTick(se.Control()) }); allocs != 0 {
		t.Fatalf("a sharded control tick allocates %.1f times, want 0", allocs)
	}
	if st := vmc.Stats(); st.ProactiveRejuvenations != 0 || st.Activations != 0 {
		t.Fatalf("idle ticks changed the pool: %+v", st)
	}
}
