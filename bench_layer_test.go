// Per-layer benchmarks of the per-VM loops of a 5x10^3-VM, 16-shard region
// (the megaclients shape) — the full feature sample, the control tick and
// the load balancer's shortest-queue pick — of the event loop's cross-lane
// path (barrier + mailbox drain), of the event queue and of the client's
// interaction-mix draw.  One op is a fixed batch of units, so
// the gate's single -benchtime=1x sample still times thousands of them; each
// benchmark reports ns and allocs per unit next to the per-op figures.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/features"
	"repro/internal/pcam"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// benchLayerRegion builds the megaclients-shaped region the per-layer
// benchmarks run against.
func benchLayerRegion() *cloudsim.Region {
	return cloudsim.NewRegion(cloudsim.RegionConfig{
		Name:           "megaregion",
		Provider:       "aws",
		Location:       "bench",
		Type:           cloudsim.M3Medium,
		InitialActive:  benchShardedActive,
		InitialStandby: benchShardedStandby,
		MaxVMs:         benchShardedActive + benchShardedStandby,
		Shards:         16,
	}, simclock.NewRNG(42))
}

// runPerUnit times b.N calls of op, each worth units units of work, and
// reports ns/<unit> and allocs/<unit>.
func runPerUnit(b *testing.B, unit string, units int, op func()) {
	b.Helper()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(units)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/"+unit)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/"+unit)
}

// benchSampleTicks is the number of control ticks' worth of samples in one op.
const benchSampleTicks = 25

// BenchmarkVMSample is the control tick's monitor loop: one op samples the
// F2PM feature vector of every ACTIVE VM benchSampleTicks times.
func BenchmarkVMSample(b *testing.B) {
	region := benchLayerRegion()
	active := region.ActiveVMs()
	sum := 0.0
	runPerUnit(b, "sample", benchSampleTicks*len(active), func() {
		for tick := 1; tick <= benchSampleTicks; tick++ {
			now := simclock.Time(30 * tick)
			for _, vm := range active {
				sum += vm.Sample(now, features.All).TimeS
			}
		}
	})
	if sum == 0 {
		b.Fatal("no samples taken")
	}
}

// BenchmarkControlTick is the VMC's control tick with the oracle predictor:
// one op runs benchSampleTicks ticks, each sampling the features the tick
// reads on every ACTIVE VM, predicting, and folding and sorting every
// shard's candidates.  No VM carries load, so no tick rejuvenates and every
// tick does the same work.
func BenchmarkControlTick(b *testing.B) {
	region := benchLayerRegion()
	vmc, err := pcam.NewVMC(region, pcam.OraclePredictor{}, pcam.Config{})
	if err != nil {
		b.Fatal(err)
	}
	eng := simclock.NewEngine(42)
	vmc.ControlTick(eng) // sizes the per-shard scratch buffers
	runPerUnit(b, "vm", benchSampleTicks*region.ActiveCount(), func() {
		for tick := 0; tick < benchSampleTicks; tick++ {
			vmc.ControlTick(eng)
		}
	})
	if st := vmc.Stats(); st.ProactiveRejuvenations != 0 || st.Activations != 0 {
		b.Fatalf("idle ticks changed the pool: %+v", st)
	}
}

// benchDispatchPicks is the number of load-balancer picks in one op.
const benchDispatchPicks = 200_000

// BenchmarkShardDispatch is the load balancer's per-request decision: one op
// makes benchDispatchPicks shortest-queue picks, rotating over the shards,
// against VMs holding queues of 1–5 requests so that no pick can stop early
// at an empty VM.
func BenchmarkShardDispatch(b *testing.B) {
	region := benchLayerRegion()
	eng := simclock.NewEngine(42)
	for i, vm := range region.ActiveVMs() {
		for j := 0; j <= i*7%5; j++ {
			vm.Dispatch(eng, &cloudsim.Request{ID: uint64(i), ServiceFactor: 1, Arrival: eng.Now()})
		}
	}
	shards := region.NumShards()
	picked := 0
	runPerUnit(b, "dispatch", benchDispatchPicks, func() {
		for rr := 0; rr < benchDispatchPicks; rr++ {
			if region.PickShortestInShard(rr%shards, rr) != nil {
				picked++
			}
		}
	})
	if picked != b.N*benchDispatchPicks {
		b.Fatalf("%d of %d picks found no ACTIVE VM", b.N*benchDispatchPicks-picked, b.N*benchDispatchPicks)
	}
}

// Shape of the cross-lane benchmark: benchLanes issuing lanes each Send one
// request every benchIssueGap to their own shard of a region living on
// benchLanes other lanes, over a benchOneWay overlay hop each way.
const (
	benchLanes    = 4
	benchForwards = 5_000
	benchIssueGap = 20 * simclock.Millisecond
	benchOneWay   = 30 * simclock.Millisecond
)

// benchIssuer is one issuing lane of the cross-lane benchmark, its own issue
// event: it Sends a pooled request and reschedules itself until left runs out.
type benchIssuer struct {
	vmc   *pcam.VMC
	shard int
	pool  cloudsim.RequestPool
	left  int
	done  func(cloudsim.Outcome)
}

// Fire implements simclock.Event.
func (is *benchIssuer) Fire(e *simclock.Engine) {
	req := is.pool.Get()
	req.ServiceFactor, req.Arrival, req.OnDone, req.ReturnLeg = 1, e.Now(), is.done, benchOneWay
	is.vmc.Send(e, is.shard, req, e.Now().Add(benchOneWay))
	if is.left--; is.left > 0 {
		e.Schedule(benchIssueGap, is)
	}
}

// BenchmarkCrossLaneForward is the event loop's cross-lane path: one op
// forwards benchForwards requests (pcam.VMC.Send), serves them on the remote
// lanes and brings every completion home — forward post, barrier drain,
// remote service, home post, drain.  The VMs inject no anomalies, so no VM
// fails and every unit is a full round trip.
func BenchmarkCrossLaneForward(b *testing.B) {
	se := simclock.NewShardedEngine(2*benchLanes, 42, simclock.DefaultEpoch, 1)
	region := cloudsim.NewRegion(cloudsim.RegionConfig{
		Name:          "remote",
		Provider:      "aws",
		Location:      "bench",
		Type:          cloudsim.M3Medium,
		InitialActive: 4 * benchLanes,
		Shards:        benchLanes,
		Anomalies:     cloudsim.AnomalyProfile{LeakSizeMB: 1}, // non-zero, so no default injection
	}, simclock.NewRNG(42))
	vmc, err := pcam.NewVMC(region, pcam.OraclePredictor{}, pcam.Config{ControlInterval: simclock.Hour})
	if err != nil {
		b.Fatal(err)
	}
	engines := make([]*simclock.Engine, benchLanes)
	for s := range engines {
		engines[s] = se.Shard(benchLanes + s)
	}
	vmc.StartSharded(se, engines)

	completed := 0
	issuers := make([]*benchIssuer, benchLanes)
	for g := range issuers {
		is := &benchIssuer{vmc: vmc, shard: g}
		is.done = func(o cloudsim.Outcome) {
			if !o.Dropped {
				completed++
			}
			is.pool.Put(o.Request)
		}
		issuers[g] = is
	}
	var horizon simclock.Duration
	runPerUnit(b, "forward", benchForwards, func() {
		for g, is := range issuers {
			is.left = benchForwards / benchLanes
			se.Shard(g).Schedule(benchIssueGap, is)
		}
		horizon += benchIssueGap*benchForwards/benchLanes + simclock.Second
		if err := se.Run(horizon); err != nil && err != simclock.ErrHorizonReached {
			b.Fatal(err)
		}
	})
	if completed != b.N*benchForwards {
		b.Fatalf("%d of %d forwarded requests came home served", completed, b.N*benchForwards)
	}
}

// Shape of the event-queue benchmark: benchQueueDepth events stay pending
// (the mean queue depth per lane of figure3, figure4 and megaclients lies
// between 448 and 706), and one op fires benchQueueFires of them, each
// rescheduling itself after a delay drawn from a fixed exponential table.
const (
	benchQueueDepth = 500
	benchQueueFires = 200_000
)

// benchRequeue is one pending event of the event-queue benchmark.
type benchRequeue struct {
	delays []simclock.Duration
	next   int
}

// Fire implements simclock.Event.
func (ev *benchRequeue) Fire(e *simclock.Engine) {
	ev.next = (ev.next + 1) % len(ev.delays)
	e.Schedule(ev.delays[ev.next], ev)
}

// BenchmarkEventQueue is the simclock heap on its own: one op is
// benchQueueFires schedule+fire pairs against a queue held at
// benchQueueDepth pending events.  A 4-ary heap measured about 8% slower
// end to end on paper-figures than this binary heap, so time any queue
// change end to end as well as here.
func BenchmarkEventQueue(b *testing.B) {
	rng := simclock.NewRNG(42)
	delays := make([]simclock.Duration, 4096)
	for i := range delays {
		delays[i] = simclock.Duration(rng.Exp(1))
	}
	eng := simclock.NewEngine(42)
	for i := 0; i < benchQueueDepth; i++ {
		ev := &benchRequeue{delays: delays, next: i * 7 % len(delays)}
		eng.Schedule(delays[ev.next], ev)
	}
	runPerUnit(b, "event", benchQueueFires, func() {
		for i := 0; i < benchQueueFires; i++ {
			eng.Step()
		}
	})
	if eng.Pending() != benchQueueDepth {
		b.Fatalf("queue depth %d after the run, want %d", eng.Pending(), benchQueueDepth)
	}
}

// benchMixPicks is the number of interaction draws in one op.
const benchMixPicks = 200_000

// BenchmarkMixPick is the draw every browser interaction starts with: one op
// draws benchMixPicks interactions from the TPC-W browsing mix through its
// prepared picker.
func BenchmarkMixPick(b *testing.B) {
	p := workload.BrowsingMix().Picker()
	rng := simclock.NewRNG(42)
	demand := 0.0
	runPerUnit(b, "pick", benchMixPicks, func() {
		for i := 0; i < benchMixPicks; i++ {
			demand += p.Pick(rng).ServiceFactor
		}
	})
	if demand == 0 {
		b.Fatal("no interaction drawn")
	}
}
