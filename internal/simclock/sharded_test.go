package simclock

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// TestShardedEngineControlEventsFireAtExactTimes pins the epoch-clamping
// rule: control events are not quantised to epoch boundaries — the epoch end
// is clamped to the next control timestamp, so a ticker on the control
// timeline fires at exactly its period even when the period is not a
// multiple of the epoch width.
func TestShardedEngineControlEventsFireAtExactTimes(t *testing.T) {
	se := NewShardedEngine(4, 7, 100*Millisecond, 1)
	var fired []Time
	se.Control().Ticker(330*Millisecond, func(e *Engine) {
		fired = append(fired, e.Now())
	})
	// The ticker keeps one event pending beyond the horizon, so the run ends
	// with ErrHorizonReached — the same contract as Engine.Run.
	if err := se.Run(1 * Second); err != ErrHorizonReached {
		t.Fatalf("Run: %v", err)
	}
	var want []Time
	for at := Time(0).Add(330 * Millisecond); at <= 1; at = at.Add(330 * Millisecond) {
		want = append(want, at)
	}
	if len(fired) != len(want) {
		t.Fatalf("control ticker fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("tick %d fired at %v, want %v", i, fired[i], want[i])
		}
	}
	if se.now != 1 {
		t.Fatalf("Now() = %v after the run, want 1", se.now)
	}
}

// TestShardedEngineShardLocalEventsRun checks that shard events execute in
// local (time, seq) order on their own sub-engine and that follow-up
// scheduling from a shard handler targets the same shard legally.
func TestShardedEngineShardLocalEventsRun(t *testing.T) {
	se := NewShardedEngine(3, 1, 50*Millisecond, 2)
	order := make([][]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		se.Shard(i).ScheduleFunc(Duration(i+1)*10*Millisecond, func(e *Engine) {
			order[i] = append(order[i], e.Now())
			e.ScheduleFunc(200*Millisecond, func(e2 *Engine) {
				order[i] = append(order[i], e2.Now())
			})
		})
	}
	if err := se.Run(1 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 3; i++ {
		first := Time(float64(i+1) * 0.01)
		if len(order[i]) != 2 || order[i][0] != first || order[i][1] != first.Add(200*Millisecond) {
			t.Fatalf("shard %d event times = %v", i, order[i])
		}
	}
	if se.Fired() != 6 {
		t.Fatalf("Fired() = %d, want 6", se.Fired())
	}
}

// TestShardedEngineHorizonReached mirrors Engine.Run's contract: live events
// beyond the horizon yield ErrHorizonReached, a drained system yields nil.
func TestShardedEngineHorizonReached(t *testing.T) {
	se := NewShardedEngine(2, 1, 100*Millisecond, 1)
	se.Shard(0).ScheduleFunc(2*Second, func(*Engine) {})
	if err := se.Run(1 * Second); err != ErrHorizonReached {
		t.Fatalf("Run with pending work = %v, want ErrHorizonReached", err)
	}
	se2 := NewShardedEngine(2, 1, 100*Millisecond, 1)
	se2.Shard(0).ScheduleFunc(200*Millisecond, func(*Engine) {})
	if err := se2.Run(1 * Second); err != nil {
		t.Fatalf("Run of a drained system = %v, want nil", err)
	}
}

// TestEnginesAgreeOnCancelledPastHorizon: no event can be cancelled, so an
// event leaves the queue only by firing.  With one event pending past the
// horizon both engines report ErrHorizonReached; with the only event firing
// before it both report a drained run (nil).  Either way the serial clock
// ends at the horizon.
func TestEnginesAgreeOnCancelledPastHorizon(t *testing.T) {
	for _, pastHorizon := range []bool{true, false} {
		at, want := 1*Second, error(nil)
		if pastHorizon {
			at, want = 10*Second, ErrHorizonReached
		}
		serial := NewEngine(1)
		serial.ScheduleFunc(at, func(*Engine) {})
		se := NewShardedEngine(2, 1, 100*Millisecond, 1)
		se.Shard(1).ScheduleFunc(at, func(*Engine) {})
		got, gotSharded := serial.Run(5*Second), se.Run(5*Second)
		if got != want || gotSharded != want {
			t.Errorf("pastHorizon=%v: Engine.Run = %v, ShardedEngine.Run = %v, want %v from both", pastHorizon, got, gotSharded, want)
		}
		if serial.Now() != 5 {
			t.Errorf("pastHorizon=%v: Engine.Now() = %v after Run(5), want 5", pastHorizon, serial.Now())
		}
	}
}

// TestShardedEngineForeignSchedulePanics pins the runtime guard: a shard
// goroutine scheduling onto another shard's engine during the parallel epoch
// must panic instead of silently corrupting the foreign queue.  Posting to
// the mailbox is the legal channel, exercised by the property test below.
func TestShardedEngineForeignSchedulePanics(t *testing.T) {
	se := NewShardedEngine(2, 1, 100*Millisecond, 1)
	foreign := se.Shard(1)
	var recovered any
	se.Shard(0).ScheduleFunc(10*Millisecond, func(*Engine) {
		defer func() { recovered = recover() }()
		foreign.ScheduleFunc(10*Millisecond, func(*Engine) {})
	})
	if err := se.Run(50 * Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if recovered == nil {
		t.Fatal("scheduling on a foreign sub-engine during the shard phase did not panic")
	}
}

// shardedPostRecord tags one cross-shard post for the determinism property
// test.
type shardedPostRecord struct {
	Epoch int
	Src   int
	Seq   int
}

// shardedScheduleRecord tags one shard-local follow-up event for the
// determinism property tests: when it fired and what it drew from its
// shard's RNG stream.
type shardedScheduleRecord struct {
	At   Time
	Draw uint64
}

// mailboxLogs are the delivery and schedule logs of one runMailboxScenario.
type mailboxLogs struct {
	lanes   [][]shardedPostRecord
	control []shardedPostRecord
	sched   [][]shardedScheduleRecord
}

// runMailboxScenario drives the property-test workload: every shard, on
// every epoch, fires one local event that posts a tagged record to every
// other shard (and to the control lane) and schedules a local follow-up at
// an RNG-drawn delay, with scheduling jitter injected so goroutines
// interleave differently between runs.  A non-nil force overrides the
// fan-out selector's pick for every epoch.  It returns the per-lane
// delivery logs and the per-shard schedule logs.
func runMailboxScenario(t *testing.T, shards, epochs, workers int, force func() fanOutMode) mailboxLogs {
	t.Helper()
	se := NewShardedEngine(shards, 99, 100*Millisecond, workers)
	se.forceFanOut = force
	received := make([][]shardedPostRecord, shards)
	sched := make([][]shardedScheduleRecord, shards)
	var controlReceived []shardedPostRecord
	for s := 0; s < shards; s++ {
		s := s
		seq := 0
		for ep := 0; ep < epochs; ep++ {
			ep := ep
			at := Duration(float64(ep)*0.1 + 0.05)
			se.Shard(s).ScheduleFunc(at, func(e *Engine) {
				e.ScheduleFunc(Duration(e.RNG().Float64()*0.04), func(e *Engine) {
					sched[s] = append(sched[s], shardedScheduleRecord{At: e.Now(), Draw: e.RNG().Uint64()})
				})
				// Shake the goroutine interleaving: yield a shard-dependent
				// number of times before posting.
				for i := 0; i < (s*7)%5; i++ {
					runtime.Gosched()
				}
				for dst := 0; dst < shards; dst++ {
					if dst == s {
						continue
					}
					rec := shardedPostRecord{Epoch: ep, Src: s, Seq: seq}
					seq++
					dst := dst
					se.Post(e, dst, func(*Engine) {
						received[dst] = append(received[dst], rec)
					})
				}
				rec := shardedPostRecord{Epoch: ep, Src: s, Seq: seq}
				seq++
				se.PostControl(e, func(*Engine) {
					controlReceived = append(controlReceived, rec)
				})
			})
		}
	}
	if err := se.Run(Duration(epochs) * 100 * Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return mailboxLogs{lanes: received, control: controlReceived, sched: sched}
}

// assertPostsOrdered fails unless log is in (epoch, shard, seq) order.
func assertPostsOrdered(t *testing.T, label string, log []shardedPostRecord) {
	t.Helper()
	for i := 1; i < len(log); i++ {
		a, b := log[i-1], log[i]
		if a.Epoch > b.Epoch || (a.Epoch == b.Epoch && a.Src > b.Src) ||
			(a.Epoch == b.Epoch && a.Src == b.Src && a.Seq >= b.Seq) {
			t.Fatalf("%s: delivery %d..%d out of (epoch, shard, seq) order: %+v then %+v", label, i-1, i, a, b)
		}
	}
}

// assertLogsEqual fails unless got matches the reference run's delivery and
// schedule logs lane for lane.
func assertLogsEqual(t *testing.T, label string, got, ref mailboxLogs) {
	t.Helper()
	for d := range got.lanes {
		assertPostsOrdered(t, fmt.Sprintf("%s lane %d", label, d), got.lanes[d])
		if !reflect.DeepEqual(got.lanes[d], ref.lanes[d]) {
			t.Fatalf("%s: lane %d delivery log diverged from the inline reference", label, d)
		}
	}
	if !reflect.DeepEqual(got.control, ref.control) {
		t.Fatalf("%s: control lane delivery log diverged", label)
	}
	for s := range got.sched {
		if !reflect.DeepEqual(got.sched[s], ref.sched[s]) {
			t.Fatalf("%s: shard %d schedule log diverged from the inline reference", label, s)
		}
	}
}

// runMailboxReference runs the mailbox scenario inline on one worker and
// checks that every post and follow-up of it arrived, in order.
func runMailboxReference(t *testing.T, shards, epochs int) mailboxLogs {
	t.Helper()
	ref := runMailboxScenario(t, shards, epochs, 1, nil)
	for d, log := range ref.lanes {
		if len(log) != (shards-1)*epochs {
			t.Fatalf("reference lane %d received %d posts, want %d", d, len(log), (shards-1)*epochs)
		}
		assertPostsOrdered(t, fmt.Sprintf("reference lane %d", d), log)
	}
	assertPostsOrdered(t, "reference control lane", ref.control)
	for s, log := range ref.sched {
		if len(log) != epochs {
			t.Fatalf("reference shard %d fired %d follow-ups, want %d", s, len(log), epochs)
		}
	}
	return ref
}

// TestShardedMailboxDeterminismProperty is the mailbox determinism property
// test: the same cross-shard posts, delivered from goroutines whose
// interleaving the runtime reorders freely across 50 epochs, must always
// drain in (epoch, shard-index, sequence) order — and repeated parallel runs
// must produce byte-identical delivery logs, matching the single-worker
// reference run.
func TestShardedMailboxDeterminismProperty(t *testing.T) {
	const shards, epochs = 8, 50
	ref := runMailboxReference(t, shards, epochs)
	workerCounts := []int{4, runtime.GOMAXPROCS(0), shards}
	for rep := 0; rep < 3; rep++ {
		for _, workers := range workerCounts {
			got := runMailboxScenario(t, shards, epochs, workers, nil)
			assertLogsEqual(t, fmt.Sprintf("workers=%d rep=%d", workers, rep), got, ref)
		}
	}
}

// TestShardedFanOutRandomModesProperty extends the mailbox property to the
// fan-out selector's freedom: whatever mix of pooled and inline epochs a run
// takes, its delivery and schedule logs equal the inline reference.  The
// override draws each epoch's mode at random, so pooled epochs follow inline
// ones (and the reverse) at every position the selector could choose.
func TestShardedFanOutRandomModesProperty(t *testing.T) {
	const shards, epochs = 8, 50
	ref := runMailboxReference(t, shards, epochs)
	for seed := uint64(1); seed <= 6; seed++ {
		rng := NewRNG(seed)
		var modes [2]int
		force := func() fanOutMode {
			m := fanOutMode(rng.Intn(2))
			modes[m]++
			return m
		}
		got := runMailboxScenario(t, shards, epochs, 4, force)
		if modes[fanInline] == 0 || modes[fanPool] == 0 {
			t.Fatalf("seed %d: forced modes %v never mixed inline and pooled epochs", seed, modes)
		}
		assertLogsEqual(t, fmt.Sprintf("forced seed=%d", seed), got, ref)
	}
}

// TestShardedEnginePostFromDrainSameBarrier documents the drain rule for
// posts made during the barrier itself: a post to a destination lane not yet
// folded at this barrier is delivered in the same pass; a post to an
// already-folded destination waits one epoch.  Both are deterministic.
func TestShardedEnginePostFromDrainSameBarrier(t *testing.T) {
	se := NewShardedEngine(3, 5, 100*Millisecond, 1)
	var log []string
	se.Shard(1).ScheduleFunc(10*Millisecond, func(e *Engine) {
		se.Post(e, 2, func(dst *Engine) {
			log = append(log, fmt.Sprintf("fwd@%v", dst.Now()))
			// Posted during the drain of lane 2: shard 0 was already folded
			// at this barrier, so this lands at the next one.
			se.Post(dst, 0, func(d0 *Engine) {
				log = append(log, fmt.Sprintf("back@%v", d0.Now()))
			})
		})
	})
	if err := se.Run(500 * Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"fwd@[s=0.100]", "back@[s=0.200]"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("drain-time post log = %v, want %v", log, want)
	}
}

// TestShardedEngineSelfPostDuringDrainWaits pins the lane-reuse rule of the
// drain: a handler that posts to the very lane being drained appends to a
// fresh lane delivered at the next barrier, and the drained lane's recycled
// backing array never overwrites posts still waiting to fire.
func TestShardedEngineSelfPostDuringDrainWaits(t *testing.T) {
	se := NewShardedEngine(2, 5, 100*Millisecond, 1)
	var log []string
	note := func(name string) Event {
		return EventFunc(func(e *Engine) { log = append(log, fmt.Sprintf("%s@%v", name, e.Now())) })
	}
	se.Shard(1).ScheduleFunc(10*Millisecond, func(e *Engine) {
		se.Post(e, 1, func(dst *Engine) {
			log = append(log, fmt.Sprintf("a@%v", dst.Now()))
			se.PostEvent(dst, 1, note("c"))
			se.PostEvent(dst, 1, note("d"))
		})
		se.PostEvent(e, 1, note("b"))
	})
	if err := se.Run(500 * Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a@[s=0.100]", "b@[s=0.100]", "c@[s=0.200]", "d@[s=0.200]"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("self-post log = %v, want %v", log, want)
	}
}

// TestShardedEngineSteadyStatePostAllocatesNothing: once every lane has grown
// to its peak depth, posting and draining reuse the lanes' backing arrays.
func TestShardedEngineSteadyStatePostAllocatesNothing(t *testing.T) {
	se := NewShardedEngine(3, 5, 100*Millisecond, 1)
	fired := 0
	ev := EventFunc(func(*Engine) { fired++ })
	round := func() {
		for src := 0; src < 3; src++ {
			for dst := 0; dst <= 3; dst++ {
				se.PostEvent(se.Shard(src), dst, ev)
				se.Post(se.Shard(src), dst, ev)
			}
		}
		se.drain()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a steady-state post + drain allocates %.1f times, want 0", allocs)
	}
	if want := 102 * 3 * 4 * 2; fired != want {
		t.Fatalf("fired %d posts, want %d", fired, want)
	}
}
