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
	"math/bits"
	"slices"
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

// entry is one value in the event queue's binary heap, 16 bytes: the firing
// time's bit pattern and a tag packing the schedule sequence number above
// the slab slot holding the event.  Entries are plain values, so once the
// heap and the slab have grown to a run's peak depth, scheduling and firing
// allocate nothing.
type entry struct {
	key uint64 // math.Float64bits(at); ScheduleAt keeps at >= +0, where the bits order as the times do
	tag uint64 // seq<<slotBits | slot; seq is unique per engine and breaks ties FIFO
}

// The tag's split: slotBits low bits address the slab, the rest count
// schedules.  ScheduleAt panics before either field would overflow.
const (
	slotBits = 24
	maxSeq   = 1 << (64 - slotBits)
	slotMask = 1<<slotBits - 1
)

// maxSlots bounds the slab at 2^slotBits pending events per engine.  It is a
// variable only so that a test can lower it instead of filling 16 M slots.
var maxSlots = 1 << slotBits

// at returns the entry's firing time.
func (en entry) at() Time { return Time(math.Float64frombits(en.key)) }

// slot returns the slab index of the entry's event.
func (en entry) slot() int32 { return int32(en.tag & slotMask) }

// less returns 1 when a sorts before b in (at, seq) order and 0 otherwise:
// the borrow out of the 128-bit subtraction (a.key, a.tag) - (b.key, b.tag),
// so the compare has no branch for the heap walks to mispredict.  seq is
// unique per engine, so the order is total and any correct heap pops the
// same sequence.
func less(a, b entry) int {
	_, borrow := bits.Sub64(a.tag, b.tag, 0)
	_, borrow = bits.Sub64(a.key, b.key, borrow)
	return int(borrow)
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

	// held is true while a handler runs and the firing event's entry still
	// sits at the heap root: the handler's first ScheduleAt overwrites it in
	// place (replaceTop), and fireNext pops it if the handler scheduled
	// nothing.  settle pops a held root before anything reads the queue.
	held bool

	// lastFiredAt is the timestamp of the most recently fired event — the
	// flight recorder reads it at each epoch barrier to split the epoch into
	// a busy prefix and an idle tail (sharded.go, flight.go).
	lastFiredAt Time

	// cluster and shardIndex are set when the engine is a sub-engine (or the
	// control timeline) of a ShardedEngine (sharded.go).  executing is true
	// while the engine's own loop is running events; together with the
	// cluster's inShardPhase flag it lets ScheduleAt reject cross-shard
	// scheduling during a shard phase (an epoch's or a ParallelPhase).
	cluster    *ShardedEngine
	shardIndex int
	executing  atomic.Bool

	// owner is the model object the engine runs (SetOwner); simclock never
	// reads it.
	owner any
}

// NewEngine returns an engine starting at time zero with the given RNG seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed), horizon: Time(math.Inf(1)), shardIndex: -1}
}

// ShardIndex returns the engine's index within its owning ShardedEngine: the
// shard number for a sub-engine, NumShards() for the control timeline, and
// -1 for a standalone engine.
func (e *Engine) ShardIndex() int { return e.shardIndex }

// Cluster returns the ShardedEngine that owns the engine, nil for a
// standalone engine.
func (e *Engine) Cluster() *ShardedEngine { return e.cluster }

// SetOwner attaches the model object the engine runs, so that an event
// handler can find what it acts on from the engine firing it (a region shard
// finds a request arriving on its lane this way).  simclock never reads it.
func (e *Engine) SetOwner(v any) { e.owner = v }

// Owner returns the value attached with SetOwner, nil when none.
func (e *Engine) Owner() any { return e.owner }

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
// cancelled entries not yet drained).  The entry of an event that is firing
// is not counted.
func (e *Engine) Pending() int {
	if e.held {
		return len(e.queue) - 1
	}
	return len(e.queue)
}

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
// the past are clamped to Now so causality is preserved; a NaN time panics.
func (e *Engine) ScheduleAt(at Time, ev Event) Handle {
	if e.cluster != nil && e.cluster.inShardPhase.Load() && !e.executing.Load() {
		// A shard phase is scheduling onto an engine whose own loop is idle:
		// a foreign shard or the control timeline during an epoch, any
		// engine during a ParallelPhase.  Cross-shard effects must go
		// through the mailbox, a phase's effects through its merge.
		panic("simclock: Schedule on a foreign sub-engine during a parallel phase (post to its mailbox, or schedule from the merge after the phase)")
	}
	if at < e.now {
		at = e.now
	}
	if !(at > 0) {
		at = checkTime(at)
	}
	if e.seq >= maxSeq {
		panic("simclock: more than 2^40 events scheduled on one engine (the event queue's sequence numbers would wrap)")
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if len(e.slots) >= maxSlots {
			panic("simclock: more than 2^24 events pending on one engine (the event queue's slab is full)")
		}
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	e.slots[i].ev = ev
	en := entry{key: math.Float64bits(float64(at)), tag: e.seq<<slotBits | uint64(i)}
	e.seq++
	if e.held {
		e.held = false
		e.replaceTop(en)
	} else {
		e.push(en)
	}
	return Handle{eng: e, slot: i, gen: e.slots[i].gen}
}

// checkTime vets an event time that is not positive after clamping to Now,
// which never runs below zero: it panics on NaN, which has no place in the
// queue's order, and maps -0 to +0, whose bits sort first.
func checkTime(at Time) Time {
	if at != at {
		panic("simclock: Schedule at a NaN time")
	}
	return 0
}

// Reserve grows the event queue so that n more events can be scheduled
// without reallocating it.
func (e *Engine) Reserve(n int) {
	e.queue = slices.Grow(e.queue, n)
	e.slots = slices.Grow(e.slots, n)
}

// push inserts en into the heap, sifting the hole up from the tail.
func (e *Engine) push(en entry) {
	e.queue = append(e.queue, en)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if less(en, q[p]) == 0 {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = en
}

// replaceTop overwrites the heap root with en and sifts it down, stopping
// where en belongs.  A firing event's first follow-up lands here, so one
// walk replaces the pop's walk to a leaf and the push's sift up.
func (e *Engine) replaceTop(en entry) {
	q := e.queue
	n := len(q)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += less(q[c+1], q[c])
		}
		if less(q[c], en) == 0 {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = en
}

// pop removes the heap root bottom-up (Floyd): the hole walks from the root
// to a leaf along the smaller child, chosen without a branch, and the former
// tail then sifts up from that leaf.  The tail belongs near the bottom, so
// the sift up is short, and the walk down makes one compare per level where
// a top-down sift makes two.
func (e *Engine) pop() {
	q := e.queue
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	e.queue = q
	if n == 0 {
		return
	}
	i := 0
	c := 1
	for ; c+1 < n; c = 2*i + 1 {
		c += less(q[c+1], q[c])
		q[i] = q[c]
		i = c
	}
	if c < n { // a last node with one child
		q[i] = q[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if less(last, q[p]) == 0 {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = last
}

// settle pops the held root of a handler that scheduled nothing on this
// engine.  Every reader of the queue calls it first, so neither a nested
// Step or Run inside a handler nor a handler that panicked leaves the fired
// entry in view.
func (e *Engine) settle() {
	if e.held {
		e.held = false
		e.pop()
	}
}

// fireNext frees the heap root's slot and, unless the event was cancelled,
// fires it.  It reports whether an event fired.  The slot is freed before
// Fire runs, so handles to the firing event already report Cancelled and the
// handler's own scheduling can reuse the slot.  The root entry stays in the
// heap, held, while the handler runs: its first ScheduleAt replaces it in
// place, and only a handler that schedules nothing leaves a pop to do.
func (e *Engine) fireNext() bool {
	top := e.queue[0]
	i := top.slot()
	s := &e.slots[i]
	ev, dead := s.ev, s.dead
	*s = slot{gen: s.gen + 1}
	e.free = append(e.free, i)
	if dead {
		e.pop()
		return false
	}
	e.now = top.at()
	e.lastFiredAt = e.now
	e.held = true
	ev.Fire(e)
	e.settle()
	e.fired++
	return true
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty, the
// horizon is exceeded, or Stop is called.  It returns ErrHorizonReached when
// the horizon cut the run short — a live event is pending past it — and nil
// otherwise; cancelled events past the horizon are discarded, as
// ShardedEngine.Run ignores them.  The clock stops at the horizon, or stays
// where it is when the horizon lies before Now: it never moves backwards.
func (e *Engine) Run(horizon Duration) error {
	e.horizon = Time(horizon)
	e.stopped = false
	e.settle()
	for len(e.queue) > 0 && !e.stopped {
		if top := e.queue[0]; top.at() > e.horizon {
			if e.slots[top.slot()].dead {
				e.fireNext() // a cancelled event past the horizon is not work left
				continue
			}
			if e.now < e.horizon {
				e.now = e.horizon
			}
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
// lockstep epoch (sharded.go): exactly a standalone engine's Run loop, bounded by
// the epoch barrier instead of a horizon, with the executing flag raised so
// the cross-shard scheduling guard can tell this engine's own loop apart
// from a foreign goroutine.
func (e *Engine) runEpoch(end Time) {
	e.executing.Store(true)
	defer e.executing.Store(false)
	e.settle()
	for len(e.queue) > 0 && e.queue[0].at() <= end {
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
	e.settle()
	for len(e.queue) > 0 {
		if e.slots[e.queue[0].slot()].dead {
			e.fireNext() // discards the cancelled root without firing it
			continue
		}
		return e.queue[0].at(), true
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
	e.settle()
	for len(e.queue) > 0 && !e.stopped {
		e.fireNext()
	}
}

// Step executes the single next pending event, if any, and reports whether an
// event fired.
func (e *Engine) Step() bool {
	e.settle()
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
	e.settle()
	var out []Time
	for _, en := range e.queue {
		if !e.slots[en.slot()].dead {
			out = append(out, en.at())
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
