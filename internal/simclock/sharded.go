package simclock

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the parallel event loop: a ShardedEngine promotes each engine
// shard to its own sub-Engine with a private event queue and RNG stream, and
// runs the N shard loops on goroutines in lockstep epochs.
//
// Events that stay shard-local (an arrival dispatched to a VM of the shard,
// its service start, its completion, a rejuvenation timer of a shard-owned
// VM) execute fully in parallel: each shard's loop pops its own queue in
// (time, seq) order exactly like a standalone engine, and because shards own
// disjoint state and disjoint RNG streams, the result of an epoch is
// independent of how the shard goroutines interleave.
//
// Effects that cross shards — a standby promotion on another shard, an
// elasticity resize, a controller-ordered rejuvenation, a request forwarded
// to another region's shard, a completion travelling back to the issuing
// client's shard — must not touch the foreign shard directly.  They are
// posted to the destination shard's *mailbox* and drained at the next epoch
// barrier, where exactly one goroutine runs.  Each (source, destination)
// lane is appended by a single goroutine (the source shard's loop) and the
// barrier folds destinations in shard-index order, each destination's lanes
// in (source shard index, post sequence) order — a fixed (epoch, shard
// index, source, sequence) total order, so delivery is byte-identical for
// every worker count and every GOMAXPROCS.
//
// Alongside the shards runs one *control* timeline: an ordinary Engine whose
// events fire only at epoch barriers, serially, with exclusive access to
// every shard.  Periodic controllers (the VMC control tick, the leader's
// control era) live there: the epoch end is clamped to the next control
// event's timestamp, so control events fire at their exact scheduled times —
// only cross-shard mailbox traffic is quantised to epoch boundaries.

const (
	// DefaultEpoch is the lockstep epoch width used when none is configured:
	// long enough to amortise the barrier, short enough that mailbox-deferred
	// cross-shard effects stay small against the think times and control
	// intervals of the simulated system.
	DefaultEpoch = 100 * Millisecond
)

// ShardedEngine coordinates N sub-engines plus a control timeline.
type ShardedEngine struct {
	shards  []*Engine
	control *Engine
	epoch   Duration
	workers int
	now     Time

	// outbox[src][dst] is the mailbox lane src appends to for dst.  src and
	// dst range over the shards plus the control lane (index len(shards)).
	// During a shard phase, lane [src][*] is appended only by shard src's
	// goroutine; at the barrier exactly one goroutine drains and appends.
	// A drained lane keeps its backing array, so steady-state posting
	// allocates nothing.
	outbox [][][]Event
	// posted[src] is set when lane src appends to any of its outbox lanes,
	// and written only by that lane's goroutine (or the barrier), so drain
	// skips a quiet barrier without visiting the lanes² outbox slots.
	posted []bool

	// inShardPhase is set while a shard phase runs — an epoch's shard loops
	// or a ParallelPhase; together with each engine's executing flag it
	// powers the cross-shard scheduling guard in Engine.ScheduleAt.
	inShardPhase atomic.Bool

	drainedPosts uint64

	// flight, when set, records per-epoch per-shard accounting at each
	// barrier (flight.go).  Reads and writes happen only in the barrier
	// context, so the recorder needs no synchronisation.
	flight *FlightRecorder

	// fan picks, per epoch of a run with a pool, whether the shard phase
	// runs on the pool or inline (fanout.go).  forceFanOut, when set by a
	// test, overrides the pick; the selector is still fed.
	fan         fanOutSelector
	forceFanOut func() fanOutMode

	// pool is Run's worker pool while Run runs with more than one worker
	// (nil otherwise); the epochs' shard phases and ParallelPhase share it.
	// runShard, the epoch's work for the pool, is built once, so a pooled
	// epoch allocates nothing; it reads epochEnd, written before the phase.
	pool     *shardPool
	runShard func(i int)
	epochEnd Time
}

// NewShardedEngine builds n sub-engines with RNG streams derived from seed
// (shard i gets DeriveSeed(seed, i); the control engine gets DeriveSeed(seed,
// n)), a lockstep epoch width (DefaultEpoch when epoch <= 0) and a worker
// count for the shard phase (GOMAXPROCS when workers <= 0; 1 runs the shard
// loops inline — the same epochal semantics with zero goroutines).
func NewShardedEngine(n int, seed uint64, epoch Duration, workers int) *ShardedEngine {
	if n <= 0 {
		panic("simclock: ShardedEngine needs at least one shard")
	}
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	se := &ShardedEngine{epoch: epoch, workers: workers}
	se.runShard = func(i int) { se.shards[i].runEpoch(se.epochEnd) }
	se.fan.startTrial()
	se.shards = make([]*Engine, n)
	for i := range se.shards {
		se.shards[i] = NewEngine(DeriveSeed(seed, uint64(i)))
		se.shards[i].shardIndex = i
		se.shards[i].cluster = se
	}
	se.control = NewEngine(DeriveSeed(seed, uint64(n)))
	se.control.shardIndex = n
	se.control.cluster = se
	lanes := n + 1
	se.outbox = make([][][]Event, lanes)
	se.posted = make([]bool, lanes)
	for i := range se.outbox {
		se.outbox[i] = make([][]Event, lanes)
	}
	return se
}

// Workers returns the number of goroutines the shard phase may run on: the
// configured count (GOMAXPROCS when <= 0), capped at the shard count.  It is
// an upper bound: with more than one worker, Run still runs an epoch inline
// when that measures cheaper (fanout.go).  ParallelPhase, the control
// tick's per-shard phase, runs on the same pool.
func (se *ShardedEngine) Workers() int {
	workers := se.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, len(se.shards))
}

// Shard returns the i-th sub-engine.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Control returns the control timeline: events scheduled here fire at epoch
// barriers — at their exact timestamps — with exclusive access to all shards.
func (se *ShardedEngine) Control() *Engine { return se.control }

// Epoch returns the configured epoch width.
func (se *ShardedEngine) Epoch() Duration { return se.epoch }

// SetFlightRecorder attaches a flight recorder; Run then records every
// epoch's per-shard fired/busy/idle accounting and every barrier's mailbox
// deliveries into it.  Attach before Run; nil detaches.
func (se *ShardedEngine) SetFlightRecorder(fr *FlightRecorder) { se.flight = fr }

// Fired returns the total number of events executed across the shards and
// the control timeline.
func (se *ShardedEngine) Fired() uint64 {
	total := se.control.Fired()
	for _, sh := range se.shards {
		total += sh.Fired()
	}
	return total
}

// LaneOf returns the mailbox lane index of an engine owned by this
// ShardedEngine: the shard index for a sub-engine, the shard count for the
// control timeline.  It panics for a foreign engine — posting on behalf of
// an engine outside the cluster would break the single-writer lane contract.
func (se *ShardedEngine) LaneOf(e *Engine) int {
	if e == nil || e.cluster != se {
		panic("simclock: LaneOf on an engine not owned by this ShardedEngine")
	}
	return e.shardIndex
}

// PostEvent defers ev to the next epoch barrier, where it fires with the dst
// shard's engine (dst == the shard count addresses the control timeline).  from
// must be the engine whose event handler (or barrier context) is calling —
// it identifies the source lane, which is what makes posting lock-free
// during the shard phase and delivery order deterministic: the barrier
// visits destinations in shard-index order and drains each destination's
// lanes in (source shard index, post sequence) order.
func (se *ShardedEngine) PostEvent(from *Engine, dst int, ev Event) {
	if dst < 0 || dst > len(se.shards) {
		panic(fmt.Sprintf("simclock: Post to unknown shard %d (have %d shards + control)", dst, len(se.shards)))
	}
	if ev == nil {
		panic("simclock: Post with nil event")
	}
	src := se.LaneOf(from)
	se.outbox[src][dst] = append(se.outbox[src][dst], ev)
	if !se.posted[src] { // one write per epoch: every lane's flag shares a cache line
		se.posted[src] = true
	}
}

// Post is PostEvent for a plain function, the way ScheduleFunc is Schedule's.
func (se *ShardedEngine) Post(from *Engine, dst int, fn func(*Engine)) {
	if fn == nil {
		panic("simclock: Post with nil fn")
	}
	se.PostEvent(from, dst, EventFunc(fn))
}

// PostControl defers fn to the next epoch barrier on the control timeline,
// where it runs with the control engine and exclusive access to all shards.
func (se *ShardedEngine) PostControl(from *Engine, fn func(*Engine)) {
	se.Post(from, len(se.shards), fn)
}

// engineFor maps a lane index back to its engine.
func (se *ShardedEngine) engineFor(lane int) *Engine {
	if lane == len(se.shards) {
		return se.control
	}
	return se.shards[lane]
}

// pendingPosts reports whether any mailbox lane holds undelivered posts.
func (se *ShardedEngine) pendingPosts() bool {
	for _, row := range se.outbox {
		for _, lane := range row {
			if len(lane) > 0 {
				return true
			}
		}
	}
	return false
}

// drain delivers every mailbox post accumulated up to this barrier.  Lanes
// are folded destination-major, source-minor, preserving per-lane append
// order — the (epoch, destination shard, source shard, sequence) delivery
// order of the determinism contract.  A lane is detached while it drains, so
// a handler that posts again appends to a fresh lane: posts to a destination
// not yet folded at this barrier are delivered in the same pass (the fold is
// serial, so this stays deterministic); posts to an already-folded
// destination wait for the next barrier.  A drained lane that received
// nothing during its own drain gets its cleared backing array back.  A
// barrier at which no lane posted returns at once; the flags are cleared
// before the fold, so a post made while it runs is seen by the next barrier.
func (se *ShardedEngine) drain() {
	quiet := true
	for src, p := range se.posted {
		if p {
			quiet = false
			se.posted[src] = false
		}
	}
	if quiet {
		return
	}
	lanes := len(se.shards) + 1
	for dst := 0; dst < lanes; dst++ {
		target := se.engineFor(dst)
		for src := 0; src < lanes; src++ {
			lane := se.outbox[src][dst]
			if len(lane) == 0 {
				continue
			}
			se.outbox[src][dst] = nil
			for _, ev := range lane {
				ev.Fire(target)
				se.drainedPosts++
			}
			if se.outbox[src][dst] == nil {
				clear(lane)
				se.outbox[src][dst] = lane[:0]
			}
		}
	}
}

// shardsFired returns the number of events the shard loops have fired, the
// control timeline not included.
func (se *ShardedEngine) shardsFired() uint64 {
	var total uint64
	for _, sh := range se.shards {
		total += sh.Fired()
	}
	return total
}

// shardPool is the persistent worker pool of one Run, and the only code in
// the package that starts goroutines: a lockstep run crosses thousands of
// epoch barriers and control ticks, so spawning fresh goroutines per phase
// would pay the spawn cost at every one.  The pool's workers live for the
// whole run and pull indices off a channel — work stealing, so an uneven
// cost across indices does not serialise a phase — with a WaitGroup as the
// phase barrier.
type shardPool struct {
	work chan int // buffered to the shard count, so an epoch's sends never wait
	wg   sync.WaitGroup
	fn   func(i int) // the phase's work; written before the sends of a phase, read by workers after the receive
}

func newShardPool(workers, depth int) *shardPool {
	p := &shardPool{work: make(chan int, depth)}
	for w := 0; w < workers; w++ {
		go func() {
			for i := range p.work {
				p.fn(i)
				p.wg.Done()
			}
		}()
	}
	return p
}

// run calls fn(0), ..., fn(n-1) on the pool's workers and blocks until every
// call has returned.
func (p *shardPool) run(n int, fn func(i int)) {
	p.fn = fn
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		p.work <- i
	}
	p.wg.Wait()
}

func (p *shardPool) close() { close(p.work) }

// ParallelPhase runs fn(0), ..., fn(n-1) from a handler at an epoch barrier
// (the control tick's per-shard phase) and returns only when every call has
// completed.  With Run's pool and n > 1 the calls run on the pool's workers;
// otherwise (one worker, or a call made outside Run) they run inline in
// index order.  The simulated clock stands still and no other event fires
// during the phase, so fn may read any engine's Now; the calls must touch
// disjoint state, and results go to per-index state the caller merges in
// index order afterwards, so the merged output is independent of goroutine
// scheduling.  The phase counts as a shard phase with no engine executing,
// so ScheduleAt's cross-shard guard rejects a schedule onto any engine of
// the cluster, and a nested phase panics.
func (se *ShardedEngine) ParallelPhase(n int, fn func(i int)) {
	if se.inShardPhase.Load() {
		panic("simclock: ParallelPhase inside a parallel phase")
	}
	executing := se.control.executing.Load()
	se.inShardPhase.Store(true)
	se.control.executing.Store(false)
	defer func() {
		se.control.executing.Store(executing)
		se.inShardPhase.Store(false)
	}()
	if se.pool != nil && n > 1 {
		se.pool.run(n, fn)
		return
	}
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// Run executes the lockstep epoch loop until the horizon: each epoch runs
// every shard's local queue up to the epoch end — inline, or on up to the
// configured number of goroutines (a persistent pool, spawned once per Run)
// when the fan-out selector measures that cheaper — then, at the barrier,
// drains the mailboxes and fires the control events that are due.  The epoch end is clamped to the next control
// event's timestamp, so control events never fire late.  Like Engine.Run it returns
// ErrHorizonReached when events remain beyond the horizon, and nil when
// the system drained.
func (se *ShardedEngine) Run(horizon Duration) error {
	h := Time(horizon)
	if math.IsInf(float64(h), 1) {
		panic("simclock: ShardedEngine.Run needs a finite horizon")
	}
	workers := se.Workers()
	var pool *shardPool
	if workers > 1 {
		pool = newShardPool(workers, len(se.shards))
		se.pool = pool
		defer func() {
			se.pool = nil
			pool.close()
		}()
	}
	// Flight-recorder scratch: cumulative counters sampled before each epoch
	// so the barrier can record per-epoch deltas.
	var prevFired []uint64
	var prevDrained uint64
	if se.flight != nil {
		prevFired = make([]uint64, len(se.shards)+1)
		for i, sh := range se.shards {
			prevFired[i] = sh.Fired()
		}
		prevFired[len(se.shards)] = se.control.Fired()
		prevDrained = se.drainedPosts
	}
	for se.now < h {
		tEnd := se.now.Add(se.epoch)
		se.control.settle()
		if q := se.control.queue; len(q) > 0 && q[0].at() < tEnd {
			tEnd = q[0].at()
		}
		if tEnd > h {
			tEnd = h
		}

		// Shard phase: every sub-engine runs its own queue up to tEnd.  The
		// loops never touch each other's state; cross-shard effects go
		// through Post.  With a pool, the selector's measurement spans the
		// shard phase and the drain: a pooled epoch's cache misses land in
		// the drain.
		mode := fanInline
		var start time.Time
		var firedBefore uint64
		if pool != nil {
			mode = se.fan.next()
			if se.forceFanOut != nil {
				mode = se.forceFanOut()
			}
			start = time.Now()
			firedBefore = se.shardsFired()
		}
		se.inShardPhase.Store(true)
		if mode == fanPool {
			se.epochEnd = tEnd
			pool.run(len(se.shards), se.runShard)
		} else {
			for i := range se.shards {
				se.shards[i].runEpoch(tEnd)
			}
		}
		se.inShardPhase.Store(false)

		// Barrier: exactly one goroutine delivers the epoch's cross-shard
		// posts in (source shard, sequence) order, then fires the control
		// events due at tEnd.  The control clock advances to the barrier
		// first, so control-lane handlers observe the same Now() as the
		// shard-lane ones (every engine sits at tEnd during the drain).
		if se.control.now < tEnd {
			se.control.now = tEnd
		}
		epochStart := se.now
		se.drain()
		if pool != nil {
			se.fan.observe(mode, time.Since(start).Nanoseconds(), se.shardsFired()-firedBefore)
		} else {
			se.fan.epochs[fanInline]++
		}
		se.control.runEpoch(tEnd)
		if se.flight != nil {
			for i, sh := range se.shards {
				se.flight.recordEpoch(i, epochStart, tEnd, sh.LastEventAt(), sh.Fired()-prevFired[i], 0)
				prevFired[i] = sh.Fired()
			}
			ctl := len(se.shards)
			se.flight.recordEpoch(ctl, epochStart, tEnd, se.control.LastEventAt(),
				se.control.Fired()-prevFired[ctl], se.drainedPosts-prevDrained)
			prevFired[ctl] = se.control.Fired()
			prevDrained = se.drainedPosts
			se.flight.epochDone()
		}
		se.now = tEnd
	}
	for _, sh := range se.shards {
		if sh.Pending() > 0 {
			return ErrHorizonReached
		}
	}
	if se.control.Pending() > 0 || se.pendingPosts() {
		return ErrHorizonReached
	}
	return nil
}
