// Package simclock provides the discrete-event simulation kernel used by the
// ACM Framework reproduction: a simulated clock, a priority event queue, and a
// deterministic pseudo-random number generator.
//
// The paper's evaluation runs on a real testbed (Amazon EC2 + a private
// server); this package is the substrate that replaces wall-clock time so the
// whole system can be exercised deterministically on a laptop.  All components
// of the simulated world (virtual machines, clients, controllers, the overlay
// network) schedule work as events against a single Engine.
package simclock

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Time is a simulated timestamp expressed in seconds since the start of the
// simulation.  A float64 keeps the arithmetic simple and is precise enough for
// the multi-hour horizons used by the experiments (sub-microsecond resolution
// over days).
type Time float64

// Duration is a simulated time span in seconds.
type Duration float64

// Common duration helpers, mirroring the time package so call sites read
// naturally (e.g. 5*simclock.Second).
const (
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
	Hour        Duration = 3600
)

// Add returns the time shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the timestamp as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// Std converts a simulated duration to a time.Duration for reporting.
func (d Duration) Std() time.Duration { return time.Duration(float64(d) * float64(time.Second)) }

// Seconds returns the duration as a float64 number of seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// String renders the time as "[s=123.456]".
func (t Time) String() string { return fmt.Sprintf("[s=%.3f]", float64(t)) }

// Event is a unit of scheduled work.  Fire is invoked with the engine so the
// handler can schedule follow-up events.
type Event interface {
	// Fire executes the event at its scheduled time.
	Fire(eng *Engine)
}

// EventFunc adapts a plain function to the Event interface.
type EventFunc func(eng *Engine)

// Fire implements Event.
func (f EventFunc) Fire(eng *Engine) { f(eng) }

// entry is one value in the event queue's binary heap: the firing key plus
// the slab slot holding the event.  Entries are plain values, so once the
// heap and the slab have grown to a run's peak depth, scheduling and firing
// allocate nothing.
type entry struct {
	at   Time
	seq  uint64 // tie-breaker to keep FIFO order for same-time events
	slot int32
}

// before orders entries by (at, seq).  seq is unique per engine, so the order
// is total and any correct heap pops the same sequence.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot holds one pending event in the engine's slab.  gen counts the slot's
// tenants: it is bumped every time the slot is freed, so a Handle issued for
// one tenant can never reach the event of a later one (short of holding a
// stale handle across 2^32 reuses of the same slot).
type slot struct {
	ev   Event
	gen  uint32
	dead bool // cancelled; the heap entry is discarded when it surfaces
}

// Handle identifies a scheduled event so it can be cancelled.  The zero
// Handle refers to no event.  A Handle stays valid after its event fires or
// is cancelled: it then reports Cancelled and Cancel is a no-op, even once
// the slot has been reused by another event.
type Handle struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// pending returns the slab slot of the handle's event while that event is
// still queued, nil once it has fired or been drained.
func (h Handle) pending() *slot {
	if h.eng == nil {
		return nil
	}
	if s := &h.eng.slots[h.slot]; s.gen == h.gen {
		return s
	}
	return nil
}

// Cancel prevents the event from firing.  Cancelling an already-fired or
// already-cancelled event, or a zero Handle, is a no-op.
func (h Handle) Cancel() {
	if s := h.pending(); s != nil {
		s.dead = true
	}
}

// Cancelled reports whether the handle has been cancelled or already fired.
func (h Handle) Cancelled() bool {
	s := h.pending()
	return s == nil || s.dead
}

// ErrHorizonReached is returned by Run when the configured horizon is hit
// before the event queue drains.
var ErrHorizonReached = errors.New("simclock: horizon reached")

// Engine is the discrete-event simulation engine.  It is not safe for
// concurrent use: the simulated world is single-threaded by design so that
// runs are reproducible.
type Engine struct {
	now     Time
	seq     uint64
	rng     *RNG
	fired   uint64
	horizon Time
	stopped bool

	// queue is a binary min-heap of (at, seq) keys; the events themselves
	// live in the slots slab, whose freed indices are kept in free for reuse.
	queue []entry
	slots []slot
	free  []int32

	// lastFiredAt is the timestamp of the most recently fired event — the
	// flight recorder reads it at each epoch barrier to split the epoch into
	// a busy prefix and an idle tail (sharded.go, flight.go).
	lastFiredAt Time

	// inParallelPhase is set while ParallelPhase (barrier.go) fans shard-local
	// work out to goroutines; scheduling is rejected during that window so a
	// handler that violates the shard-local contract fails loudly instead of
	// corrupting the event queue.
	inParallelPhase bool

	// cluster and shardIndex are set when the engine is a sub-engine (or the
	// control timeline) of a ShardedEngine (sharded.go).  executing is true
	// while the engine's own loop is running events; together with the
	// cluster's inShardPhase flag it lets ScheduleAt reject cross-shard
	// scheduling during a parallel epoch.
	cluster    *ShardedEngine
	shardIndex int
	executing  atomic.Bool
}

// NewEngine returns an engine starting at time zero with the given RNG seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed), horizon: Time(math.Inf(1)), shardIndex: -1}
}

// ShardIndex returns the engine's index within its owning ShardedEngine: the
// shard number for a sub-engine, NumShards() for the control timeline, and
// -1 for a standalone engine.
func (e *Engine) ShardIndex() int { return e.shardIndex }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// LastEventAt returns the timestamp of the most recently fired event (zero
// before any event has fired).
func (e *Engine) LastEventAt() Time { return e.lastFiredAt }

// Pending returns the number of events currently scheduled (including
// cancelled entries not yet drained).
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule enqueues ev to fire after delay d (relative to Now).  Negative
// delays are clamped to zero.
func (e *Engine) Schedule(d Duration, ev Event) Handle {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now.Add(d), ev)
}

// ScheduleFunc is a convenience wrapper around Schedule for plain functions.
func (e *Engine) ScheduleFunc(d Duration, fn func(*Engine)) Handle {
	return e.Schedule(d, EventFunc(fn))
}

// ScheduleAt enqueues ev to fire at the absolute simulated time at.  Times in
// the past are clamped to Now so causality is preserved.
func (e *Engine) ScheduleAt(at Time, ev Event) Handle {
	if e.inParallelPhase {
		panic("simclock: Schedule during a parallel phase (parallel-phase work must be shard-local; schedule from the merge phase instead)")
	}
	if e.cluster != nil && e.cluster.inShardPhase.Load() && !e.executing.Load() {
		// A goroutine of the parallel epoch is scheduling onto an engine
		// whose own loop is idle — i.e. onto a foreign shard (or the control
		// timeline).  Cross-shard effects must go through the mailbox.
		panic("simclock: Schedule on a foreign sub-engine during a parallel epoch (post to its mailbox instead)")
	}
	if at < e.now {
		at = e.now
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	e.slots[i].ev = ev
	e.push(entry{at: at, seq: e.seq, slot: i})
	e.seq++
	return Handle{eng: e, slot: i, gen: e.slots[i].gen}
}

// push inserts en into the heap, sifting the hole up from the tail.
func (e *Engine) push(en entry) {
	e.queue = append(e.queue, en)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !en.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = en
}

// pop removes the heap root, sifting the former tail down from the top.
func (e *Engine) pop() entry {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// fireNext pops the heap root, frees its slot and, unless the event was
// cancelled, fires it.  It reports whether an event fired.  The slot is freed
// before Fire runs, so handles to the firing event already report Cancelled
// and the handler's own scheduling can reuse the slot.
func (e *Engine) fireNext() bool {
	top := e.pop()
	s := &e.slots[top.slot]
	ev, dead := s.ev, s.dead
	*s = slot{gen: s.gen + 1}
	e.free = append(e.free, top.slot)
	if dead {
		return false
	}
	e.now = top.at
	e.lastFiredAt = top.at
	ev.Fire(e)
	e.fired++
	return true
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty, the
// horizon is exceeded, or Stop is called.  It returns ErrHorizonReached when
// the horizon cut the run short, and nil otherwise.
func (e *Engine) Run(horizon Duration) error {
	e.horizon = Time(horizon)
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > e.horizon {
			e.now = e.horizon
			return ErrHorizonReached
		}
		e.fireNext()
	}
	if !e.stopped && e.now < e.horizon && !math.IsInf(float64(e.horizon), 1) {
		// Advance to the horizon even if the queue drained early so metrics
		// sampled "at the end of the run" observe the full window.
		e.now = e.horizon
	}
	return nil
}

// runEpoch executes every live event with a timestamp <= end in (time, seq)
// order and advances the clock to end.  It is the per-shard slice of one
// lockstep epoch (sharded.go): exactly the serial engine's loop, bounded by
// the epoch barrier instead of a horizon, with the executing flag raised so
// the cross-shard scheduling guard can tell this engine's own loop apart
// from a foreign goroutine.
func (e *Engine) runEpoch(end Time) {
	e.executing.Store(true)
	defer e.executing.Store(false)
	for len(e.queue) > 0 && e.queue[0].at <= end {
		e.fireNext()
	}
	if e.now < end {
		e.now = end
	}
}

// NextEventTime returns the timestamp of the earliest live pending event and
// whether one exists, discarding cancelled entries at the heap root on the
// way.
func (e *Engine) NextEventTime() (Time, bool) {
	for len(e.queue) > 0 {
		if e.slots[e.queue[0].slot].dead {
			e.fireNext() // discards the cancelled root without firing it
			continue
		}
		return e.queue[0].at, true
	}
	return 0, false
}

// hasLiveEvents reports whether any non-cancelled event is pending.
func (e *Engine) hasLiveEvents() bool {
	_, ok := e.NextEventTime()
	return ok
}

// RunUntilEmpty executes all scheduled events with no horizon.
func (e *Engine) RunUntilEmpty() {
	e.horizon = Time(math.Inf(1))
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		e.fireNext()
	}
}

// Step executes the single next pending event, if any, and reports whether an
// event fired.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		if e.fireNext() {
			return true
		}
	}
	return false
}

// PendingTimes returns the timestamps of all live pending events in ascending
// order.  Intended for tests and debugging.
func (e *Engine) PendingTimes() []Time {
	var out []Time
	for _, en := range e.queue {
		if !e.slots[en.slot].dead {
			out = append(out, en.at)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ticker schedules fn every period until the returned stop function is called
// or the engine drains.  The first invocation happens after one period.
func (e *Engine) Ticker(period Duration, fn func(*Engine)) (stop func()) {
	if period <= 0 {
		panic("simclock: ticker period must be positive")
	}
	stopped := false
	var tick func(*Engine)
	tick = func(eng *Engine) {
		if stopped {
			return
		}
		fn(eng)
		if !stopped {
			eng.ScheduleFunc(period, tick)
		}
	}
	e.ScheduleFunc(period, tick)
	return func() { stopped = true }
}
