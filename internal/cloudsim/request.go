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
	// Class names the TPC-W interaction (e.g. "home", "search_request"),
	// carried for tracing purposes.
	Class string
	// ServiceFactor scales the instance's base service demand: a value of 2
	// means the interaction costs twice the base demand (e.g. a best-seller
	// query hitting the database harder than serving the home page).
	ServiceFactor float64
	// EntryRegion is the region whose load balancer first received the
	// request (before any cross-region forwarding decided by the plan).
	EntryRegion string
	// Arrival is the simulated time the request entered the system.
	Arrival simclock.Time
	// Forwarded reports whether the request was forwarded to a region other
	// than its entry region by the global forward plan.
	Forwarded bool
	// released marks a request sitting in a RequestPool's free list (placed
	// beside Forwarded so the two share one word).
	released bool
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
	// (successfully or not).
	OnDone func(Outcome)
	// OnDoneCtx, if non-nil, takes precedence over OnDone and additionally
	// receives the engine on which the completion fired.  The sharded event
	// loop uses it to learn which shard sub-engine served the request so the
	// completion can be posted back to the issuing shard's mailbox instead of
	// touching the issuer's state from a foreign goroutine.
	OnDoneCtx func(eng *simclock.Engine, o Outcome)
	// Issuer is the workload generator's back-reference to the client that
	// issued the request, so one completion callback can serve a whole
	// population.  cloudsim never reads it.
	Issuer any

	// vm and serviceStart are set while the request is in service: the
	// request is then its own completion event (vm.go).
	vm           *VM
	serviceStart simclock.Time
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
// its last action.  A request whose client gave up on it (a timeout) stays
// out of the free list until its late completion fires.
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
	// Region is the region that processed the request.
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

// ServiceTime returns the time the request actually spent in service.
func (o Outcome) ServiceTime() simclock.Duration { return o.End.Sub(o.Start) }

// finish invokes the completion callback exactly once, with the engine the
// completion fired on.  Finishing a released request panics with
// ErrRequestReleased.
func (r *Request) finish(eng *simclock.Engine, o Outcome) {
	if r.released {
		panic(ErrRequestReleased)
	}
	if r.OnDoneCtx != nil {
		cb := r.OnDoneCtx
		r.OnDoneCtx = nil
		r.OnDone = nil
		cb(eng, o)
		return
	}
	if r.OnDone != nil {
		cb := r.OnDone
		r.OnDone = nil
		cb(o)
	}
}

// Finish completes the request exactly once through whichever completion
// callback is installed.  It is the exported entry point for load balancers
// and dispatchers that terminate a request themselves (e.g. dropping it when
// no ACTIVE VM exists) rather than handing it to a VM.
func (r *Request) Finish(eng *simclock.Engine, o Outcome) { r.finish(eng, o) }

// RehomeOnDone prepares the request to complete on a foreign shard of a
// sharded event loop: the current OnDone is replaced by an OnDoneCtx that
// runs it directly when the completion fires on the home lane, and otherwise
// posts it to the home shard's mailbox — so the issuer's state is never
// touched from a foreign goroutine.  transform, if non-nil, adjusts the
// outcome first (e.g. adding the return leg of an overlay latency).  Both
// the region load balancer's empty-shard hop and the deployment's
// cross-region dispatcher route completions through this one helper.
func (r *Request) RehomeOnDone(se *simclock.ShardedEngine, home int, transform func(*Outcome)) {
	orig := r.OnDone
	r.OnDone = nil
	r.OnDoneCtx = func(ceng *simclock.Engine, o Outcome) {
		if transform != nil {
			transform(&o)
		}
		if orig == nil {
			return
		}
		if se.LaneOf(ceng) == home {
			orig(o)
			return
		}
		if r.Trace != nil {
			// Guarded so the detail string is only built for sampled
			// requests — the rehome path runs for every forwarded request.
			r.Trace.Event(tracing.EventRehome, ceng.Now(),
				fmt.Sprintf("lane=%d home=%d", se.LaneOf(ceng), home))
		}
		se.Post(ceng, home, func(*simclock.Engine) { orig(o) })
	}
}
