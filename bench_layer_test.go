// Per-layer benchmarks of the per-VM loops of a 5x10^3-VM, 16-shard region
// (the megaclients shape) — the full feature sample, the control tick and
// the load balancer's shortest-queue pick on a fully loaded and on a busy
// shard — of a cohort batch's anomaly draws and of its Erlang sampler, of
// the event loop's cross-lane path (barrier + mailbox drain), of the event
// queue and of the client's interaction-mix draw.  One op is a fixed batch
// of units, so the gate's single -benchtime=1x sample still times thousands
// of them; each benchmark reports ns and allocs per unit next to the per-op
// figures.
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
	}.WithDefaults(), simclock.NewRNG(42))
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

// BenchmarkDispatchPick is the load balancer's pick on a busy shard that
// still has an idle VM: every ACTIVE VM holds one request except the last
// ACTIVE VM of each shard, so the rr-th VM is loaded in all but one of every
// 250 picks and the pick must find the idle VM.  One op makes
// benchDispatchPicks picks, rotating over the shards.
func BenchmarkDispatchPick(b *testing.B) {
	region := benchLayerRegion()
	eng := simclock.NewEngine(42)
	var active []*cloudsim.VM
	for s := 0; s < region.NumShards(); s++ {
		active = region.AppendByStateInShard(active[:0], s, cloudsim.StateActive)
		for i, vm := range active[:len(active)-1] {
			vm.Dispatch(eng, &cloudsim.Request{ID: uint64(i), ServiceFactor: 1, Arrival: eng.Now()})
		}
	}
	shards := region.NumShards()
	idle := 0
	runPerUnit(b, "dispatch", benchDispatchPicks, func() {
		for rr := 0; rr < benchDispatchPicks; rr++ {
			if region.PickShortestInShard(rr%shards, rr).QueueLength() == 0 {
				idle++
			}
		}
	})
	if idle != b.N*benchDispatchPicks {
		b.Fatalf("%d of %d picks chose a loaded VM over an idle one", b.N*benchDispatchPicks-idle, b.N*benchDispatchPicks)
	}
}

// Shape of the anomaly benchmark: benchBatches completions of a batch of
// benchBatchSize interactions, the mean batch of the megaclients workload.
const (
	benchBatches   = 20_000
	benchBatchSize = 36
)

// BenchmarkAnomalyBatch is a cohort batch's anomaly injection: one op serves
// benchBatches batched requests on one VM, and each completion draws how
// many of its interactions leak memory and threads (two Binomial draws on
// the region's prepared tables) and the leaked megabytes.  The instance
// type's base service time is 0, so no service-time draw is made and the
// anomaly draws are what is timed, and the failure point is out of reach,
// so the VM never fails.
func BenchmarkAnomalyBatch(b *testing.B) {
	typ := cloudsim.M3Medium
	typ.BaseServiceMs = 0
	region := cloudsim.NewRegion(cloudsim.RegionConfig{
		Name:          "batch",
		Type:          typ,
		InitialActive: 1,
		Failure:       cloudsim.FailurePoint{MemoryFraction: 1e9, ThreadFraction: 1e9},
	}.WithDefaults(), simclock.NewRNG(42))
	region.PrepareBatches(benchBatchSize)
	vm := region.VMs()[0]
	eng := simclock.NewEngine(42)
	req := &cloudsim.Request{ServiceFactor: 1, Batch: benchBatchSize}
	runPerUnit(b, "batch", benchBatches, func() {
		for i := 0; i < benchBatches; i++ {
			req.Arrival = eng.Now()
			vm.Dispatch(eng, req)
			eng.Step()
		}
	})
	if served := vm.Served(); served != uint64(b.N*benchBatches*benchBatchSize) {
		b.Fatalf("served %d interactions, want %d", served, b.N*benchBatches*benchBatchSize)
	}
}

// benchErlangShapes is the shape mix of a megaclients op's Erlang draws (the
// service times of its cohort batches and the leak sizes of their leaks):
// the 64 quantile midpoints of the shapes drawn in one 15-minute op at seed
// 42, a mean shape of 39 with 19% of the draws at or below 3 and 30% above
// 50.
var benchErlangShapes = [64]int{
	1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5,
	5, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 10, 10, 10, 11, 11,
	11, 12, 12, 13, 13, 14, 15, 16, 17, 18, 20, 25, 51, 65, 81, 88,
	92, 95, 98, 101, 104, 106, 110, 114, 120, 128, 128, 128, 128, 128, 128, 128,
}

// benchErlangDraws is the number of Erlang draws in one op.
const benchErlangDraws = 64 * 1_000

// BenchmarkErlangDraw is the sampler behind a cohort batch's service time
// and leak size: one op makes benchErlangDraws Erlang draws, cycling
// through benchErlangShapes.
func BenchmarkErlangDraw(b *testing.B) {
	rng := simclock.NewRNG(42)
	total := 0.0
	runPerUnit(b, "draw", benchErlangDraws, func() {
		for i := 0; i < benchErlangDraws; i++ {
			total += rng.Erlang(benchErlangShapes[i%len(benchErlangShapes)], 0.04)
		}
	})
	if !(total > 0) {
		b.Fatalf("Erlang draws summed to %v", total)
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
	region *cloudsim.Region
	shard  int
	pool   cloudsim.RequestPool
	left   int
	done   func(cloudsim.Outcome)
}

// Fire implements simclock.Event.
func (is *benchIssuer) Fire(e *simclock.Engine) {
	req := is.pool.Get()
	req.ServiceFactor, req.Arrival, req.OnDone, req.ReturnLeg = 1, e.Now(), is.done, benchOneWay
	is.region.Send(e, is.shard, req, e.Now().Add(benchOneWay))
	if is.left--; is.left > 0 {
		e.Schedule(benchIssueGap, is)
	}
}

// BenchmarkCrossLaneForward is the event loop's cross-lane path: one op
// forwards benchForwards requests (cloudsim.Region.Send), serves them on the
// remote lanes and brings every completion home — forward post, barrier
// drain, remote service, home post, drain.  The VMs inject no anomalies, so no VM
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
	}.WithDefaults(), simclock.NewRNG(42))
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
		is := &benchIssuer{region: region, shard: g}
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

// benchQueueDelays is the fixed exponential delay table of the event-queue
// benchmarks.
func benchQueueDelays() []simclock.Duration {
	rng := simclock.NewRNG(42)
	delays := make([]simclock.Duration, 4096)
	for i := range delays {
		delays[i] = simclock.Duration(rng.Exp(1))
	}
	return delays
}

// BenchmarkEventQueue is the simclock heap on its own: one op is
// benchQueueFires schedule+fire pairs against a queue held at
// benchQueueDepth pending events, each follow-up scheduled by the handler of
// the event that fires, so it replaces the firing root in place.  The
// branchless 16-byte heap with that in-place replacement took it from 196
// to 110 ns/event (medians of 3 alternating runs on a 2-core Xeon); time any
// queue change end to end as well as here.
func BenchmarkEventQueue(b *testing.B) {
	delays := benchQueueDelays()
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

// BenchmarkEventQueuePost is the push path: one op schedules benchQueueFires
// no-op events from outside any handler, as ShardedEngine.drain delivers
// cross-lane posts, and fires each in turn, against a queue held at
// benchQueueDepth.  Each event costs a sift up and a bottom-up pop.  The
// 16-byte heap took it from 183 to 136 ns/event (medians of 3 alternating
// runs on a 2-core Xeon).
func BenchmarkEventQueuePost(b *testing.B) {
	delays := benchQueueDelays()
	eng := simclock.NewEngine(42)
	noop := simclock.EventFunc(func(*simclock.Engine) {})
	next := 0
	post := func() {
		eng.Schedule(delays[next], noop)
		next = (next + 1) % len(delays)
	}
	for i := 0; i < benchQueueDepth; i++ {
		post()
	}
	runPerUnit(b, "event", benchQueueFires, func() {
		for i := 0; i < benchQueueFires; i++ {
			post()
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

// benchPromotions is the number of standby promotions in one op.
const benchPromotions = 10_000

// BenchmarkStandbyPromotion is the VMC's standby promotion: one op makes
// benchPromotions promotions, each reading every shard's first STANDBY VM
// and ACTIVE count, activating the candidate of the shard with the fewest
// ACTIVE VMs, and parking it again, so that every promotion sees the same
// pool.
func BenchmarkStandbyPromotion(b *testing.B) {
	region := benchLayerRegion()
	eng := simclock.NewEngine(42)
	shards := region.NumShards()
	promoted := 0
	runPerUnit(b, "promotion", benchPromotions, func() {
		for i := 0; i < benchPromotions; i++ {
			var best *cloudsim.VM
			bestActive := 0
			for s := 0; s < shards; s++ {
				cand, active := region.StandbyPromotionCandidate(s)
				if cand != nil && (best == nil || active < bestActive) {
					best, bestActive = cand, active
				}
			}
			if best.Activate(eng) && best.Deactivate() {
				promoted++
			}
		}
	})
	if promoted != b.N*benchPromotions {
		b.Fatalf("%d of %d promotions found no STANDBY VM", b.N*benchPromotions-promoted, b.N*benchPromotions)
	}
}
