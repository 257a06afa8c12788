package cloudsim

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/simclock"
	"repro/internal/tracing"
)

// TestRequestSizeClass pins Request to the 160-byte size class: every pooled
// request pays for each field, so a new one must fit or justify the move.
func TestRequestSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size > 160 {
		t.Fatalf("unsafe.Sizeof(Request{}) = %d, want <= 160", size)
	}
}

// TestVMIndexFollowsVMsOrder: VM.Index is the VM's position in its
// region's VMs(), for the initial pool and for VMs provisioned later, and
// storing it keeps VM in its 384-byte size class (a region holds thousands).
func TestVMIndexFollowsVMsOrder(t *testing.T) {
	region := NewRegion(RegionConfig{
		Name: "indexed", Provider: "aws", Location: "test", Type: M3Medium,
		InitialActive: 5, InitialStandby: 2, MaxVMs: 10, Shards: 3,
	}, simclock.NewRNG(1))
	region.Provision(3)
	for i, vm := range region.VMs() {
		if vm.Index() != i {
			t.Errorf("%s: Index() = %d, want %d", vm.ID(), vm.Index(), i)
		}
	}
	if size := unsafe.Sizeof(VM{}); size > 384 {
		t.Fatalf("unsafe.Sizeof(VM{}) = %d, want <= 384", size)
	}
}

// rehomes counts the rehome trace events of a request.
func rehomes(rt *tracing.RequestTrace) (n int, detail string) {
	for _, ev := range rt.Events {
		if ev.Name == tracing.EventRehome {
			n++
			detail = ev.Detail
		}
	}
	return n, detail
}

// TestCompletionRunsOnHomeLane issues requests on lane 0 of a two-lane
// ShardedEngine and completes them on lane 1: OnDone must run at the next
// barrier (on lane 0's behalf, never on lane 1's goroutine), with End shifted
// by ReturnLeg and the parked outcome intact, and the rehome trace event must
// appear exactly when the completion crosses lanes.  Lane 0 owns issuerTicks
// and bumps it every millisecond, so under -race a callback running on lane
// 1's goroutine is a reported data race.
func TestCompletionRunsOnHomeLane(t *testing.T) {
	const (
		epoch     = 100 * simclock.Millisecond
		returnLeg = 20 * simclock.Millisecond
	)
	se := simclock.NewShardedEngine(2, 7, epoch, 2)
	home, serving := se.Shard(0), se.Shard(1)
	cfg := testVMConfig("remote")
	cfg.Anomalies = AnomalyProfile{}
	vm := NewVM(cfg, serving.RNG().Fork())
	vm.Activate(serving)

	issuerTicks := 0
	stop := home.Ticker(simclock.Millisecond, func(*simclock.Engine) { issuerTicks++ })
	defer stop()

	type completion struct {
		at    simclock.Time // serving lane's clock when OnDone ran
		o     Outcome
		ticks int
	}
	var served, dropped, local []completion
	record := func(into *[]completion) func(Outcome) {
		return func(o Outcome) { *into = append(*into, completion{at: serving.Now(), o: o, ticks: issuerTicks}) }
	}

	// Served remotely: issued on lane 0 at 10 ms, dispatched on lane 1.
	servedReq := &Request{ID: 1, ServiceFactor: 1, Home: home, ReturnLeg: returnLeg,
		Trace: &tracing.RequestTrace{}, OnDone: record(&served)}
	home.ScheduleFunc(10*simclock.Millisecond, func(e *simclock.Engine) {
		servedReq.Arrival = e.Now()
		se.Post(e, 1, func(e1 *simclock.Engine) { vm.Dispatch(e1, servedReq) })
	})
	// Dropped remotely by a balancer at 130 ms; finishing it twice must
	// still complete it once.
	droppedReq := &Request{ID: 2, Home: home, ReturnLeg: returnLeg,
		Trace: &tracing.RequestTrace{}, OnDone: record(&dropped)}
	dropAt := simclock.Time(0).Add(130 * simclock.Millisecond)
	serving.ScheduleAt(dropAt, simclock.EventFunc(func(e1 *simclock.Engine) {
		o := Outcome{Request: droppedReq, Region: "far", Start: e1.Now(), End: e1.Now(), Dropped: true}
		droppedReq.Finish(e1, o)
		droppedReq.Finish(e1, o)
	}))
	// Issued and served on lane 1: no crossing, OnDone runs in place.  Its
	// callback must not read lane 0's state.
	localReq := &Request{ID: 3, ServiceFactor: 1, Home: serving, ReturnLeg: returnLeg,
		Trace: &tracing.RequestTrace{}, OnDone: func(o Outcome) {
			local = append(local, completion{at: serving.Now(), o: o})
		}}
	serving.ScheduleFunc(250*simclock.Millisecond, func(e1 *simclock.Engine) {
		localReq.Arrival = e1.Now()
		vm.Dispatch(e1, localReq)
	})

	if err := se.Run(simclock.Second); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("Run: %v", err)
	}
	if len(served) != 1 || len(dropped) != 1 || len(local) != 1 {
		t.Fatalf("completions: served %d, dropped %d, local %d; want one each", len(served), len(dropped), len(local))
	}

	// nextBarrier is the first epoch boundary at or after t.
	nextBarrier := func(t simclock.Time) float64 {
		return math.Ceil(float64(t)/float64(epoch)-1e-9) * float64(epoch)
	}
	for _, c := range []struct {
		name string
		c    completion
	}{{"served", served[0]}, {"dropped", dropped[0]}} {
		completedAt := c.c.o.End - simclock.Time(returnLeg)
		if want := nextBarrier(completedAt); math.Abs(float64(c.c.at)-want) > 1e-9 {
			t.Errorf("%s: OnDone ran at %v, want the barrier after its completion at %v (%.3f)", c.name, c.c.at, completedAt, want)
		}
		if n, detail := rehomes(c.c.o.Request.Trace); n != 1 || detail != "lane=1 home=0" {
			t.Errorf("%s: %d rehome events (last %q), want exactly one \"lane=1 home=0\"", c.name, n, detail)
		}
	}
	if o := served[0].o; o.Dropped || o.VM != "remote" || o.Region != "" || o.Start < o.Request.Arrival || o.End <= o.Start.Add(returnLeg) {
		t.Errorf("served outcome came home altered: %+v", o)
	}
	if o := dropped[0].o; !o.Dropped || o.Region != "far" || o.VM != "" || o.Start != dropAt || o.End != dropAt.Add(returnLeg) {
		t.Errorf("dropped outcome = %+v, want Region far, Start %v, End %v", o, dropAt, dropAt.Add(returnLeg))
	}
	if served[0].ticks == 0 {
		t.Errorf("the served callback ran before lane 0 ticked")
	}

	if c := local[0]; math.Abs(float64(c.at-(c.o.End-simclock.Time(returnLeg)))) > 1e-9 || c.o.End <= c.o.Start {
		t.Errorf("local: OnDone ran at %v for End %v, want it in place at End - ReturnLeg", c.at, c.o.End)
	}
	if n, _ := rehomes(localReq.Trace); n != 0 {
		t.Errorf("local: %d rehome events for a completion on its home lane, want 0", n)
	}
}
