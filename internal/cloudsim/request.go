package cloudsim

import (
	"errors"
	"fmt"

	"repro/internal/simclock"
	"repro/internal/tracing"
)

// Request is one client interaction to be served by a VM hosting the server
// replica.  The workload package generates requests according to the TPC-W
// interaction mix; cloudsim only cares about the relative service demand of
// each interaction class.
type Request struct {
	// ID is a unique identifier assigned by the workload generator.
	ID uint64
	// ServiceFactor scales the instance's base service demand: a value of 2
	// means the interaction costs twice the base demand (e.g. a best-seller
	// query hitting the database harder than serving the home page).
	ServiceFactor float64
	// Arrival is the simulated time the request entered the system.
	Arrival simclock.Time
	// released marks a request in a RequestPool's free list, homeward one
	// whose outcome is parked on it on the way home (finish), delayed one
	// on a trip to a shard (arrival) that has waited out its latency.  The
	// bools and hops share one word.
	released, homeward, parkedDropped, parkedRegion, delayed bool
	// hops counts the empty shards a trip to a shard has hopped off.
	hops uint16
	// Batch is the number of client interactions this request stands for.
	// Cohort-compressed populations submit one request per counted batch of
	// statistically identical interactions; a VM serves the batch back to
	// back (Erlang service time) and weights its throughput and drop
	// counters by the batch size.  Zero or one means an ordinary individual
	// request.
	Batch int
	// Trace is the request's span log when the deployment's tracer sampled
	// it, nil otherwise.  All RequestTrace methods are nil-receiver safe, so
	// instrumentation points annotate unconditionally; the sampling decision
	// is a pure derived-seed function of (stream, ID), so whether Trace is
	// set never depends on engine RNG state or worker interleavings.
	Trace *tracing.RequestTrace
	// OnDone, if non-nil, is invoked exactly once when the request completes
	// (successfully or not), on the request's Home engine.
	OnDone func(Outcome)
	// Home is the engine lane the issuer lives on, recorded when the request
	// first leaves it for another lane of a ShardedEngine (nil until then).
	// A completion firing elsewhere rides the mailbox back to Home, so the
	// issuer's state is never touched from a foreign goroutine.
	Home *simclock.Engine
	// ReturnLeg is the latency of the response's trip back to the entry
	// region.  It is added to the End of every outcome, drops included, on
	// the lane the completion fires on.
	ReturnLeg simclock.Duration
	// Issuer is the workload generator's back-reference to the client that
	// issued the request, so one completion callback can serve a whole
	// population.  cloudsim never reads it.
	Issuer any

	// vm and start are set while the request is in service: the request is
	// then its own completion event (vm.go).  On the way home start, end and
	// parkedName hold the parked outcome's Start, End and VM or Region.  On
	// a trip to a shard, before either, end holds the trip's due time.
	vm         *VM
	start, end simclock.Time
	parkedName string
}

// ErrRequestReleased is the panic value of completing a request after its
// issuer returned it to a RequestPool: a completion path kept a pointer past
// the request's one completion.
var ErrRequestReleased = errors.New("cloudsim: completion of a released request")

// RequestPool is a free list of Requests owned by one issuer.  It is not safe
// for concurrent use and deliberately not a sync.Pool: an issuer lives on one
// engine lane, so its requests are taken and returned on that lane only and
// reuse never crosses lanes.
//
// Ownership rule: a request taken with Get belongs to the issuer until its
// completion callback runs; the callback returns it with Put exactly once, as
// its last action.
type RequestPool struct {
	free []*Request
}

// Get returns a zeroed request, reusing a released one when available.
func (p *RequestPool) Get() *Request {
	n := len(p.free)
	if n == 0 {
		return &Request{}
	}
	r := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	r.released = false
	return r
}

// Put resets every field of r, marks it released and adds it to the free
// list.  Releasing a request twice panics with ErrRequestReleased.
func (p *RequestPool) Put(r *Request) {
	if r.released {
		panic(ErrRequestReleased)
	}
	*r = Request{released: true}
	p.free = append(p.free, r)
}

// Weight returns the number of client interactions the request stands for:
// Batch for a cohort batch, 1 for an ordinary request.
func (r *Request) Weight() uint64 {
	if r.Batch > 1 {
		return uint64(r.Batch)
	}
	return 1
}

// Outcome describes how a request terminated.
type Outcome struct {
	// Request echoes the originating request.
	Request *Request
	// VM is the identifier of the VM that served (or dropped) the request;
	// empty if no VM could be found.
	VM string
	// Region is the region that processed the request, set when no VM is
	// named (its load balancer dropped the request).  An outcome names a VM
	// or a region, never both.
	Region string
	// Start is the time service began (queue exit).
	Start simclock.Time
	// End is the completion (or drop) time.
	End simclock.Time
	// Dropped is true when the request was not served: the VM crashed while
	// the request was queued or in service, or no ACTIVE VM was available.
	Dropped bool
}

// ResponseTime returns the end-to-end latency observed by the client: time
// from arrival at the load balancer to completion.
func (o Outcome) ResponseTime() simclock.Duration {
	if o.Request == nil {
		return 0
	}
	return o.End.Sub(o.Request.Arrival)
}

// Finish completes the request exactly once, from a VM or from a load
// balancer that terminates it itself (e.g. dropping it when no ACTIVE VM
// exists).  End is shifted by the return leg, and OnDone runs in place when
// the completion fires on the home engine (or the request never left it).
// Otherwise the outcome is parked on the request, which is posted home as
// its own event (homeCompletion), so the trip allocates nothing.
// Finishing a released request panics with ErrRequestReleased.
func (r *Request) Finish(eng *simclock.Engine, o Outcome) {
	if r.released {
		panic(ErrRequestReleased)
	}
	if r.OnDone == nil || r.homeward {
		return
	}
	o.End = o.End.Add(r.ReturnLeg)
	if r.Home == nil || r.Home == eng {
		r.done(o)
		return
	}
	se := eng.Cluster()
	home := se.LaneOf(r.Home)
	if r.Trace != nil {
		// Guarded so the detail string is only built for sampled requests —
		// this path runs for every forwarded request.
		r.Trace.Event(tracing.EventRehome, eng.Now(),
			fmt.Sprintf("lane=%d home=%d", se.LaneOf(eng), home))
	}
	// An outcome names a VM or a region, never both: one string carries it.
	r.homeward, r.start, r.end, r.parkedDropped = true, o.Start, o.End, o.Dropped
	r.parkedName, r.parkedRegion = o.VM, o.VM == ""
	if r.parkedRegion {
		r.parkedName = o.Region
	}
	se.PostEvent(eng, home, (*homeCompletion)(r))
}

// startTrip resets the request's trip state for a trip to a shard due at
// `at` after hops empty shards, so nothing of an earlier trip survives.
func (r *Request) startTrip(at simclock.Time, hops int) {
	r.end, r.delayed, r.hops = at, false, uint16(hops)
}

// done runs OnDone, clearing it first.
func (r *Request) done(o Outcome) {
	cb := r.OnDone
	r.OnDone = nil
	cb(o)
}

// homeCompletion is a request carrying its parked outcome home, seen as the
// mailbox event that runs OnDone there.
type homeCompletion Request

// Fire implements simclock.Event.
func (h *homeCompletion) Fire(*simclock.Engine) {
	r := (*Request)(h)
	r.homeward = false
	o := Outcome{Request: r, VM: r.parkedName, Start: r.start, End: r.end, Dropped: r.parkedDropped}
	if r.parkedRegion {
		o.VM, o.Region = "", r.parkedName
	}
	r.done(o)
}
