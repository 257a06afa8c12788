package cloudsim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/simclock"
	"repro/internal/tracing"
)

// sendConfig is a region of M3Medium VMs that inject no anomalies, so no VM
// fails and every request is served, or dropped by the balancer.
func sendConfig(shards, active, standby int) RegionConfig {
	return RegionConfig{
		Name:           "remote",
		Provider:       "aws",
		Location:       "test",
		Type:           M3Medium,
		InitialActive:  active,
		InitialStandby: standby,
		Shards:         shards,
		Anomalies:      AnomalyProfile{LeakSizeMB: 1}, // non-zero, so no default injection
	}
}

// bindRegion builds a region of cfg whose shard i runs on lane first+i of se.
func bindRegion(se *simclock.ShardedEngine, cfg RegionConfig, first int) *Region {
	r := NewRegion(cfg, simclock.NewRNG(1))
	engs := make([]*simclock.Engine, r.NumShards())
	for i := range engs {
		engs[i] = se.Shard(first + i)
	}
	r.BindShardEngines(engs)
	return r
}

// shardHops counts the shard-hop trace events of a request.
func shardHops(rt *tracing.RequestTrace) int {
	n := 0
	for _, ev := range rt.Events {
		if ev.Name == tracing.EventShardHop {
			n++
		}
	}
	return n
}

// TestShardBindingIsExclusive: a request arriving on a lane finds its shard
// as the engine's owner, so an engine may run one shard only, and a region
// too large for a trip's 16-bit hop count is rejected by name.
func TestShardBindingIsExclusive(t *testing.T) {
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: recovered %v, want a panic naming %q", what, r, want)
			}
		}()
		f()
	}
	se := simclock.NewShardedEngine(2, 1, 0, 1)
	bindRegion(se, sendConfig(2, 2, 0), 0)
	mustPanic("a second region on lane 1", "already runs another shard", func() { bindRegion(se, sendConfig(1, 1, 0), 1) })
	mustPanic("MaxShards+1 shards", "more than MaxShards", func() { NewRegion(sendConfig(MaxShards+1, 0, 0), nil) })
}

// TestSendOneWayTrafficAllocatesNothing sends from lane 0 to a shard on lane
// 1 only, for 150 epochs after 300 epochs of warm-up, alternating trips that
// end before the delivering barrier with trips that outlast it.  The request
// is its own event on the way out and on the way home, so once the event
// queues and mailbox lanes have grown, traffic in one direction allocates
// nothing.
func TestSendOneWayTrafficAllocatesNothing(t *testing.T) {
	se := simclock.NewShardedEngine(2, 9, 100*simclock.Millisecond, 1)
	region := bindRegion(se, sendConfig(1, 4, 0), 1)

	var pool RequestPool
	sent, home := 0, 0
	done := func(o Outcome) {
		home++
		pool.Put(o.Request)
	}
	// Seven sends per 100 ms epoch, alternating short and long trips, so some
	// requests submit in the delivering drain and some a timer later.
	const gap = 14 * simclock.Millisecond
	var issue simclock.EventFunc
	left := 0
	issue = func(e *simclock.Engine) {
		req := pool.Get()
		req.ServiceFactor, req.Arrival, req.OnDone = 1, e.Now(), done
		oneWay := 30 * simclock.Millisecond
		if sent%2 == 1 {
			oneWay = 130 * simclock.Millisecond
		}
		sent++
		region.Send(e, 0, req, e.Now().Add(oneWay))
		if left--; left > 0 {
			e.Schedule(gap, issue)
		}
	}
	var horizon simclock.Duration
	epochs := func(n int) {
		left = int(simclock.Duration(n) * 100 * simclock.Millisecond / gap)
		se.Shard(0).Schedule(gap, issue)
		horizon += simclock.Duration(n)*100*simclock.Millisecond + simclock.Second
		if err := se.Run(horizon); err != nil && err != simclock.ErrHorizonReached {
			t.Fatal(err)
		}
	}
	epochs(150) // warm-up; AllocsPerRun runs a second warm-up batch itself
	if allocs := testing.AllocsPerRun(1, func() { epochs(150) }); allocs != 0 {
		t.Fatalf("150 epochs of one-way traffic allocate %.0f times after warm-up, want 0", allocs)
	}
	if home != sent || sent < 1000 {
		t.Fatalf("%d of %d sent requests came home", home, sent)
	}
}

// TestHopAfterDelayedTripReschedules: a request whose trip waited out its
// latency on arrival and then hopped off an empty shard starts its next trip
// with fresh state, so a long trip on it still waits out its latency on the
// destination lane.  Lane 0 issues; the region's two shards run on lanes 1
// and 2, and shard 0 has no ACTIVE VM.
func TestHopAfterDelayedTripReschedules(t *testing.T) {
	se := simclock.NewShardedEngine(3, 5, 100*simclock.Millisecond, 1)
	region := bindRegion(se, sendConfig(2, 2, 0), 1)
	for _, vm := range region.ActiveVMsInShard(0) {
		vm.Deactivate()
	}
	const oneWay = 130 * simclock.Millisecond
	issuer := se.Shard(0)
	req := &Request{ServiceFactor: 1, Trace: &tracing.RequestTrace{}}
	var outcomes []Outcome
	var hops []int
	var done func(Outcome)
	send := func(shard int) {
		req.Arrival, req.OnDone = issuer.Now(), done
		req.Trace.Events = req.Trace.Events[:0]
		region.Send(issuer, shard, req, issuer.Now().Add(oneWay))
	}
	done = func(o Outcome) {
		outcomes = append(outcomes, o)
		hops = append(hops, shardHops(req.Trace))
		if len(outcomes) == 1 {
			send(1) // the same request, not reset by a pool
		}
	}
	issuer.ScheduleFunc(20*simclock.Millisecond, func(*simclock.Engine) { send(0) })
	if err := se.Run(2 * simclock.Second); err != nil && err != simclock.ErrHorizonReached {
		t.Fatal(err)
	}
	if len(outcomes) != 2 {
		t.Fatalf("%d completions came home, want 2", len(outcomes))
	}
	// Trip 1: due at 0.15 on shard 0, which is empty; the hop is delivered
	// to shard 1 at the 0.2 barrier.
	if o := outcomes[0]; o.Dropped || hops[0] != 1 || math.Abs(float64(o.Start-0.2)) > 1e-9 {
		t.Errorf("hopped trip: %+v after %d hops, want served from 0.2 after 1 hop", o, hops[0])
	}
	o := outcomes[1]
	if want := o.Request.Arrival.Add(oneWay); o.Dropped || hops[1] != 0 || math.Abs(float64(o.Start-want)) > 1e-9 {
		t.Errorf("next trip: %+v after %d hops, want served from %v, after its full latency", o, hops[1], want)
	}
}

// TestShardedSendConcurrentLanes runs the cross-lane path on four worker
// goroutines: lanes 0 and 1 each Send to their own shard of a region living
// on lanes 2 and 3, so every lane posts, delivers or completes requests
// during the same shard phase.  Under -race this checks that each lane
// touches only its own state; the completions must match a one-worker run's.
func TestShardedSendConcurrentLanes(t *testing.T) {
	run := func(workers int) []simclock.Time {
		se := simclock.NewShardedEngine(4, 11, 100*simclock.Millisecond, workers)
		region := bindRegion(se, sendConfig(2, 8, 0), 2)
		ends := make([][]simclock.Time, 2) // ends[g] is appended on lane g only
		for g := range ends {
			var pool RequestPool
			left := 500
			done := func(o Outcome) {
				ends[g] = append(ends[g], o.End)
				pool.Put(o.Request)
			}
			var issue simclock.EventFunc
			issue = func(e *simclock.Engine) {
				req := pool.Get()
				req.ServiceFactor, req.Arrival, req.OnDone = 1, e.Now(), done
				region.Send(e, g, req, e.Now().Add(30*simclock.Millisecond))
				if left--; left > 0 {
					e.Schedule(7*simclock.Millisecond, issue)
				}
			}
			se.Shard(g).Schedule(7*simclock.Millisecond, issue)
		}
		if err := se.Run(10 * simclock.Second); err != nil && err != simclock.ErrHorizonReached {
			t.Fatal(err)
		}
		return append(ends[0], ends[1]...)
	}
	serial, parallel := run(1), run(4)
	if len(serial) != 1000 || !slices.Equal(serial, parallel) {
		t.Fatalf("1 worker: %d completions, 4 workers: %d; want 1000 identical", len(serial), len(parallel))
	}
}

// sendTrip is one trip of FuzzRegionSend: a request sent to shard, due
// delay after its issue.
type sendTrip struct {
	shard int
	delay simclock.Duration
}

// FuzzRegionSend drives Region.Send on a 2-worker ShardedEngine.  The first
// byte picks the shard count n (2 to 4); shard i runs on lane i, and lane n
// issues only.  The rest decodes as 3-byte operations (a, b, c), the k-th at
// k*9 ms:
//
//   - a%8 == 7: the control lane empties shard b%n of its ACTIVE VMs, or
//     refills it from its STANDBY VMs when it has none;
//   - otherwise lane b%(n+1) sends a request to shard (b/(n+1))%n, due
//     (a/8)*10 ms later; its completion sends the same request again, to
//     shard c%n, due (c/8)*10 ms later.  Requests are reused by their lane
//     without a pool's reset, so each trip runs on the fields an earlier
//     trip, possibly a delayed and hopped one, left behind.
//
// It checks that every trip completes exactly once, with its completion on
// the issuing lane (Home, and under -race the lane-owned state the callback
// writes), is never served before it is due, and hops at most n-1 times.
func FuzzRegionSend(f *testing.F) {
	// n=2: shard 0 emptied, then a delayed trip from lane 2 that hops to
	// shard 1, followed by a delayed trip straight to shard 1.
	f.Add([]byte{0, 7, 0, 0, 104, 2, 105})
	f.Add([]byte{1, 8, 1, 33, 16, 5, 200, 7, 2, 0, 250, 3, 17, 7, 2, 0, 40, 4, 99, 0, 0, 0, 255, 1, 3})
	f.Add([]byte{2, 7, 0, 0, 7, 1, 0, 7, 2, 0, 7, 3, 0, 24, 4, 80, 0, 0, 0, 7, 0, 0, 48, 1, 13, 96, 9, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%3
		ops := data[1:]
		if len(ops) > 3*128 {
			ops = ops[:3*128] // longer schedules add run time, not coverage
		}
		const gap = 9 * simclock.Millisecond
		se := simclock.NewShardedEngine(n+1, 3, 100*simclock.Millisecond, 2)
		region := bindRegion(se, sendConfig(n, 2*n, n), 0)

		// Lane-owned state: free[g] and the records of lane g's sends are
		// touched only on lane g.
		free := make([][]*Request, n+1)
		type sendRec struct {
			lane  int
			trips [2]sendTrip
			done  [2]int
		}
		var sends []*sendRec
		for k := 0; k+2 < len(ops); k += 3 {
			a, b, c := int(ops[k]), int(ops[k+1]), int(ops[k+2])
			at := simclock.Duration(k/3) * gap
			if a%8 == 7 {
				s := b % n
				se.Control().ScheduleFunc(at, func(ctrl *simclock.Engine) {
					if region.ActiveCountInShard(s) > 0 {
						for _, vm := range region.ActiveVMsInShard(s) {
							vm.Deactivate()
						}
						return
					}
					for _, vm := range region.StandbyVMsInShard(s) {
						vm.Activate(ctrl)
					}
				})
				continue
			}
			rec := &sendRec{lane: b % (n + 1), trips: [2]sendTrip{
				{shard: b / (n + 1) % n, delay: simclock.Duration(a/8) * 10 * simclock.Millisecond},
				{shard: c % n, delay: simclock.Duration(c/8) * 10 * simclock.Millisecond},
			}}
			sends = append(sends, rec)
			eng := se.Shard(rec.lane)
			var req *Request
			var due simclock.Time
			trip := 0
			var start func()
			done := func(o Outcome) {
				if req.Home != nil && req.Home != eng {
					t.Errorf("lane %d: a completion homed on lane %d", rec.lane, se.LaneOf(req.Home))
				}
				if rec.done[trip]++; rec.done[trip] > 1 {
					t.Errorf("lane %d: trip %d completed %d times", rec.lane, trip, rec.done[trip])
				}
				if o.Start < due-1e-9 {
					t.Errorf("lane %d trip %+v: served at %v, before its due time %v", rec.lane, rec.trips[trip], o.Start, due)
				}
				if h := shardHops(req.Trace); h > n-1 {
					t.Errorf("lane %d trip %+v: %d hops over %d shards", rec.lane, rec.trips[trip], h, n)
				}
				if trip++; trip < len(rec.trips) {
					start()
					return
				}
				free[rec.lane] = append(free[rec.lane], req)
			}
			start = func() {
				tr := rec.trips[trip]
				req.Arrival, req.OnDone, req.ServiceFactor = eng.Now(), done, 1
				req.Trace.Events = req.Trace.Events[:0]
				due = eng.Now().Add(tr.delay)
				region.Send(eng, tr.shard, req, due)
			}
			eng.ScheduleFunc(at, func(*simclock.Engine) {
				if m := len(free[rec.lane]); m > 0 {
					req = free[rec.lane][m-1]
					free[rec.lane] = free[rec.lane][:m-1]
				} else {
					req = &Request{Trace: &tracing.RequestTrace{}}
				}
				start()
			})
		}
		horizon := simclock.Duration(len(ops)/3)*gap + 30*simclock.Second
		if err := se.Run(horizon); err != nil {
			t.Fatalf("Run: %v (a trip never completed)", err)
		}
		for _, rec := range sends {
			if rec.done != [2]int{1, 1} {
				t.Errorf("lane %d trips %+v completed %v times, want once each", rec.lane, rec.trips, rec.done)
			}
		}
	})
}
