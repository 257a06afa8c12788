package pcam

import (
	"math"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
)

func shardedRegion(seed uint64, shards, active, standby int) *cloudsim.Region {
	cfg := cloudsim.RegionConfig{
		Name:           "shardy",
		Provider:       "aws",
		Location:       "test",
		Type:           cloudsim.M3Medium,
		InitialActive:  active,
		InitialStandby: standby,
		Shards:         shards,
	}.WithDefaults()
	return cloudsim.NewRegion(cfg, simclock.NewRNG(seed))
}

// TestSubmitShardedSpreadsLoad drives the load balancer of a 4-shard region
// and checks that every shard serves a share of the traffic and nothing is
// dropped: the shard rotation must not starve or over-concentrate.
func TestSubmitShardedSpreadsLoad(t *testing.T) {
	eng := simclock.NewEngine(21)
	region := shardedRegion(21, 4, 8, 4)
	vmc := newTestVMC(t, region, OraclePredictor{}, Config{ElasticityEnabled: false})

	const n = 200
	dropped := 0
	for i := 0; i < n; i++ {
		delay := simclock.Duration(float64(i) * 0.05)
		eng.ScheduleFunc(delay, func(e *simclock.Engine) {
			vmc.Submit(e, &cloudsim.Request{ID: uint64(i), ServiceFactor: 1, Arrival: e.Now(),
				OnDone: func(o cloudsim.Outcome) {
					if o.Dropped {
						dropped++
					}
				}})
		})
	}
	eng.RunUntilEmpty()

	if dropped != 0 {
		t.Fatalf("%d of %d requests dropped in a healthy sharded region", dropped, n)
	}
	perShard := make([]uint64, region.NumShards())
	var total uint64
	for _, vm := range region.VMs() {
		perShard[vm.ShardIndex()] += vm.Served()
		total += vm.Served()
	}
	if total != n {
		t.Fatalf("served %d requests, want %d", total, n)
	}
	for s, served := range perShard {
		if served == 0 {
			t.Fatalf("shard %d served nothing: %v", s, perShard)
		}
	}
}

// TestSubmitShardedSkipsInactiveShards deactivates every ACTIVE VM of one
// shard and checks the rotation routes around it without dropping requests.
func TestSubmitShardedSkipsInactiveShards(t *testing.T) {
	eng := simclock.NewEngine(5)
	region := shardedRegion(5, 4, 8, 4)
	vmc := newTestVMC(t, region, OraclePredictor{}, Config{ElasticityEnabled: false})

	const deadShard = 2
	for _, vm := range region.AppendByStateInShard(nil, deadShard, cloudsim.StateActive) {
		if !vm.Deactivate() {
			t.Fatalf("could not deactivate %s", vm.ID())
		}
	}

	const n = 100
	dropped := 0
	for i := 0; i < n; i++ {
		delay := simclock.Duration(float64(i) * 0.05)
		eng.ScheduleFunc(delay, func(e *simclock.Engine) {
			vmc.Submit(e, &cloudsim.Request{ID: uint64(i), ServiceFactor: 1, Arrival: e.Now(),
				OnDone: func(o cloudsim.Outcome) {
					if o.Dropped {
						dropped++
					}
				}})
		})
	}
	eng.RunUntilEmpty()

	if dropped != 0 {
		t.Fatalf("%d requests dropped even though three shards stayed active", dropped)
	}
	for _, vm := range region.VMs() {
		if vm.ShardIndex() == deadShard && vm.Served() != 0 {
			t.Fatalf("deactivated shard %d still served requests via %s", deadShard, vm.ID())
		}
	}
}

// TestSubmitShardedDropsWithoutActives: when no shard has an ACTIVE VM the
// request is dropped with the region attributed, exactly like the unsharded
// balancer.
func TestSubmitShardedDropsWithoutActives(t *testing.T) {
	eng := simclock.NewEngine(9)
	region := shardedRegion(9, 4, 0, 8)
	vmc := newTestVMC(t, region, OraclePredictor{}, Config{ElasticityEnabled: false})

	var out cloudsim.Outcome
	vmc.Submit(eng, &cloudsim.Request{ID: 1, ServiceFactor: 1, Arrival: eng.Now(),
		OnDone: func(o cloudsim.Outcome) { out = o }})
	if !out.Dropped || out.Region != "shardy" {
		t.Fatalf("expected a dropped outcome attributed to the region, got %+v", out)
	}
}

// TestActivateStandbyPrefersDepletedShard: when a rejuvenation wave empties
// one shard's active set, the replenishment promotions must go to that shard
// first — Submit's rotation keeps sending it ~1/N of the traffic, so a
// shard-agnostic promotion (the old whole-pool StandbyVMs()[0]) would leave
// the depleted shard's survivors carrying a multiple of the per-VM load.
func TestActivateStandbyPrefersDepletedShard(t *testing.T) {
	eng := simclock.NewEngine(17)
	region := shardedRegion(17, 4, 8, 4) // 2 ACTIVE + 1 STANDBY per shard
	vmc := newTestVMC(t, region, OraclePredictor{}, Config{ElasticityEnabled: false})

	const depleted = 2
	for _, vm := range region.AppendByStateInShard(nil, depleted, cloudsim.StateActive) {
		if !vm.Rejuvenate(eng) {
			t.Fatalf("could not rejuvenate %s", vm.ID())
		}
	}
	if region.ActiveCountInShard(depleted) != 0 {
		t.Fatalf("shard %d still has active VMs after the rejuvenation wave", depleted)
	}

	vmc.ControlTick(eng)

	// The depleted shard holds one standby, so the first of the two
	// replenishment promotions must land there (the second falls back to the
	// least-active shard that still has a spare).
	if got := region.ActiveCountInShard(depleted); got != 1 {
		t.Fatalf("depleted shard has %d active VMs after replenishment, want 1", got)
	}
	if got := vmc.Stats().Activations; got != 2 {
		t.Fatalf("activations = %d, want 2 (back to the target pool size)", got)
	}
}

// TestControlTickShardedRejuvenation checks the per-shard worst-first scan
// still finds and rejuvenates an about-to-fail VM in a sharded region.
func TestControlTickShardedRejuvenation(t *testing.T) {
	eng := simclock.NewEngine(13)
	region := shardedRegion(13, 4, 8, 4)
	vmc := newTestVMC(t, region, OraclePredictor{}, Config{ElasticityEnabled: false})

	worn := region.AppendByStateInShard(nil, 3, cloudsim.StateActive)[0]
	worn.PreAge(0.95)

	vmc.ControlTick(eng)
	if got := vmc.Stats().ProactiveRejuvenations; got != 1 {
		t.Fatalf("proactive rejuvenations = %d, want 1 (the pre-aged VM)", got)
	}
	if worn.State() != cloudsim.StateRejuvenating {
		t.Fatalf("pre-aged VM state = %v, want REJUVENATING", worn.State())
	}
	if got := vmc.Stats().Activations; got != 1 {
		t.Fatalf("activations = %d, want 1 standby takeover", got)
	}
}

// sendHarness is a two-lane event loop whose lane 1 is the only shard of a
// small region, bound by the VMC's StartSharded: lane 0 issues pooled
// requests and Sends them across (cloudsim.Region.Send), each due oneWay
// after its issue and completing through done.
type sendHarness struct {
	se        *simclock.ShardedEngine
	vmc       *VMC
	pool      cloudsim.RequestPool
	oneWay    simclock.Duration
	done      func(cloudsim.Outcome)
	issue     simclock.Event
	outcomes  []cloudsim.Outcome
	completed int
	horizon   simclock.Duration
}

func newSendHarness(t *testing.T) *sendHarness {
	t.Helper()
	h := &sendHarness{se: simclock.NewShardedEngine(2, 3, 100*simclock.Millisecond, 1)}
	h.vmc = newTestVMC(t, shardedRegion(3, 1, 4, 0), OraclePredictor{},
		Config{ElasticityEnabled: false, ControlInterval: simclock.Hour})
	h.vmc.StartSharded(h.se, []*simclock.Engine{h.se.Shard(1)})
	h.issue = simclock.EventFunc(func(e *simclock.Engine) {
		req := h.pool.Get()
		req.ServiceFactor, req.Arrival, req.OnDone = 1, e.Now(), h.done
		h.vmc.region.Send(e, 0, req, e.Now().Add(h.oneWay))
	})
	return h
}

// send issues one request on lane 0 at `at`.
func (h *sendHarness) send(at simclock.Duration) { h.se.Shard(0).Schedule(at, h.issue) }

// run advances the event loop by d.
func (h *sendHarness) run(d simclock.Duration) {
	h.horizon += d
	if err := h.se.Run(h.horizon); err != nil && err != simclock.ErrHorizonReached {
		panic(err)
	}
}

// TestSendArrivesAtSendAt: a request sent across lanes reaches its shard at
// the delivering barrier when its one-way trip ended within the epoch, and
// exactly at its due time when the trip outlasts the barrier; its completion
// comes home.
func TestSendArrivesAtSendAt(t *testing.T) {
	h := newSendHarness(t)
	h.done = func(o cloudsim.Outcome) { h.outcomes = append(h.outcomes, o) }
	h.oneWay = 30 * simclock.Millisecond
	h.send(10 * simclock.Millisecond)
	h.run(simclock.Second)
	h.oneWay = 130 * simclock.Millisecond
	h.send(20 * simclock.Millisecond)
	h.run(simclock.Second)
	if len(h.outcomes) != 2 {
		t.Fatalf("%d completions came home, want 2", len(h.outcomes))
	}
	for i, want := range []simclock.Time{0.1, 1.15} {
		o := h.outcomes[i]
		if o.Dropped || o.Request.Home != h.se.Shard(0) || math.Abs(float64(o.Start-want)) > 1e-9 {
			t.Errorf("request %d: %+v (home %p), want served from %v and homed on lane 0", i, o, o.Request.Home, want)
		}
	}
}

// TestSendRoundTripAllocatesNothing bounds the allocation cost of the
// cross-lane path: once the event queues and mailbox lanes have grown, the
// request's trip out, its remote service and its completion's trip home
// allocate nothing.
func TestSendRoundTripAllocatesNothing(t *testing.T) {
	h := newSendHarness(t)
	h.oneWay = 30 * simclock.Millisecond
	h.done = func(o cloudsim.Outcome) {
		h.completed++
		h.pool.Put(o.Request)
	}
	roundTrip := func() {
		h.send(10 * simclock.Millisecond)
		h.run(simclock.Second)
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("a forwarded round trip allocates %.2f times, want 0", allocs)
	}
	if h.completed != 102 {
		t.Fatalf("%d round trips completed, want 102", h.completed)
	}
}
