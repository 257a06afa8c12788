// Package tracing is the request-path span layer of the reproduction: a
// deterministic, sampled, per-request event log threaded through the full
// lifecycle — issue, global routing decision, RTT legs, cross-lane mailbox
// hops, shard dispatch, VM queue wait, service, completion re-homing — plus
// the exporters that turn collected traces into Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing) and into the critical-path
// breakdown table of the acmsim report.
//
// Determinism contract: the sampling decision and the trace ID are pure
// functions of (trace seed, request ID) through the splitmix64 stream
// machinery (simclock.DeriveSeed) — no engine RNG is ever drawn, so enabling
// tracing changes no simulation behaviour, and the sampled set is identical
// for every EventWorkers/GOMAXPROCS value.  Span timestamps are sim-time,
// events within one trace are appended in causal order (a request lives on
// exactly one engine lane at a time, and cross-lane moves happen through
// mailbox posts that carry a happens-before edge), and the exporter sorts
// traces canonically by trace ID before writing — so the exported bytes are
// independent of the wall-clock order in which worker goroutines sealed
// them, byte-identical at any worker count, and pinned by goldens like every
// other plane.
package tracing

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/simclock"
)

// Tracer owns the sampling decision and collects sealed traces.  One Tracer
// serves a whole deployment; Start is called on arbitrary engine lanes and
// performs no locking (the decision is pure), while Seal appends to the
// collected set under a mutex — the only cross-lane state, ordered
// canonically at export time.
type Tracer struct {
	seed      uint64
	fraction  float64
	threshold uint64

	mu     sync.Mutex
	traces []*RequestTrace
}

// NewTracer returns a tracer sampling the given fraction of requests on the
// stream derived from seed.  Fractions outside (0, 1] clamp: <= 0 samples
// nothing, >= 1 samples everything.
func NewTracer(seed uint64, fraction float64) *Tracer {
	t := &Tracer{seed: seed, fraction: fraction}
	switch {
	case fraction <= 0:
		t.threshold = 0
	case fraction >= 1:
		t.threshold = ^uint64(0)
	default:
		// The top 53 bits of the derived hash, mapped to [0, 1), decide the
		// sample — the same uniform mapping RNG.Float64 uses, but on a pure
		// derived stream so no engine RNG state is consumed.
		t.threshold = uint64(fraction * float64(1<<53))
	}
	return t
}

// SampleFraction returns the configured sampling fraction.
func (t *Tracer) SampleFraction() float64 { return t.fraction }

// hashString is FNV-1a over the request ID, the same construction the
// Manager uses to derive per-purpose seed streams from names.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// traceID derives the 64-bit trace ID of a request from its (stream,
// request ID) identity.  It doubles as the sampling variate: the decision
// and the ID come from one derivation, so a request's identity in
// exemplars, exports and goldens is stable.
func (t *Tracer) traceID(stream string, requestID uint64) uint64 {
	return simclock.DeriveSeed(t.seed, hashString(stream), requestID)
}

// Sampled reports the sampling decision for a request identity without
// starting a trace.
func (t *Tracer) Sampled(stream string, requestID uint64) bool {
	if t == nil || t.threshold == 0 {
		return false
	}
	if t.threshold == ^uint64(0) {
		return true
	}
	return t.traceID(stream, requestID)>>11 < t.threshold
}

// Start returns the trace for a sampled request, or nil when the request
// falls outside the sample.  All RequestTrace methods are nil-receiver safe,
// so instrumentation points write `req.Trace.Event(...)` unconditionally.
func (t *Tracer) Start(stream string, requestID uint64, weight uint64, at simclock.Time) *RequestTrace {
	if !t.Sampled(stream, requestID) {
		return nil
	}
	if weight == 0 {
		weight = 1
	}
	return &RequestTrace{
		tracer:    t,
		TraceID:   t.traceID(stream, requestID),
		Stream:    stream,
		RequestID: requestID,
		Weight:    weight,
		Issued:    at,
	}
}

// collect appends a sealed trace.  Collection order is wall-clock dependent
// (whichever lane seals first); Traces sorts canonically, so order here never
// reaches an exported byte.
func (t *Tracer) collect(rt *RequestTrace) {
	t.mu.Lock()
	t.traces = append(t.traces, rt)
	t.mu.Unlock()
}

// Len returns the number of collected traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

// Traces returns the collected traces in canonical order: by trace ID, ties
// broken by (stream, request ID).  The returned slice is a copy.
func (t *Tracer) Traces() []*RequestTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]*RequestTrace, len(t.traces))
	copy(out, t.traces)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TraceID != b.TraceID {
			return a.TraceID < b.TraceID
		}
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		return a.RequestID < b.RequestID
	})
	return out
}

// Event is one annotation on a request's lifecycle: an instant (Dur == 0) or
// a sub-span (Dur > 0), named from the span catalogue.
type Event struct {
	Name   string
	At     simclock.Time
	Dur    simclock.Duration
	Detail string
}

// RequestTrace is the append-only event log of one sampled request.  It is
// deliberately lock-free: a request's lifecycle is sequential — it lives on
// one engine lane at a time, and every cross-lane move rides a mailbox post,
// which is a happens-before edge — so appends can never race.
type RequestTrace struct {
	tracer *Tracer

	TraceID   uint64
	Stream    string
	RequestID uint64
	Weight    uint64
	Issued    simclock.Time

	Events []Event

	// Completion summary, valid once Sealed.
	Sealed  bool
	Outcome string // "ok" or "dropped"
	Start   simclock.Time
	End     simclock.Time
	VM      string
	Region  string
}

// IDString renders the trace ID the way exemplars and exports carry it.
func (rt *RequestTrace) IDString() string { return fmt.Sprintf("%016x", rt.TraceID) }

// Event appends an instant annotation.  Safe on a nil trace.
func (rt *RequestTrace) Event(name string, at simclock.Time, detail string) {
	if rt == nil || rt.Sealed {
		return
	}
	rt.Events = append(rt.Events, Event{Name: name, At: at, Detail: detail})
}

// Span appends a duration annotation.  Safe on a nil trace.
func (rt *RequestTrace) Span(name string, at simclock.Time, d simclock.Duration, detail string) {
	if rt == nil || rt.Sealed {
		return
	}
	rt.Events = append(rt.Events, Event{Name: name, At: at, Dur: d, Detail: detail})
}

// Seal closes the trace with its completion summary and hands it to the
// tracer.  Exactly-once: later calls are ignored.  Safe on a nil trace.
func (rt *RequestTrace) Seal(outcome string, start, end simclock.Time, vm, region string) {
	if rt == nil || rt.Sealed {
		return
	}
	rt.Sealed = true
	rt.Outcome = outcome
	rt.Start, rt.End = start, end
	rt.VM, rt.Region = vm, region
	rt.tracer.collect(rt)
}

// enqueueAt returns the last vm.enqueue timestamp, used to synthesise the
// queue-wait span: the request left the queue at Outcome.Start.
func (rt *RequestTrace) enqueueAt() (simclock.Time, bool) {
	for i := len(rt.Events) - 1; i >= 0; i-- {
		if rt.Events[i].Name == EventVMEnqueue {
			return rt.Events[i].At, true
		}
	}
	return 0, false
}

// QueueWait returns the synthesised VM queue wait (enqueue to service start),
// zero when the request never reached a VM queue.
func (rt *RequestTrace) QueueWait() simclock.Duration {
	if !rt.Sealed || rt.Outcome != OutcomeOK {
		return 0
	}
	enq, ok := rt.enqueueAt()
	if !ok || rt.Start < enq {
		return 0
	}
	return rt.Start.Sub(enq)
}

// ServiceTime returns the VM service span (start to end) of a served trace.
func (rt *RequestTrace) ServiceTime() simclock.Duration {
	if !rt.Sealed || rt.Outcome != OutcomeOK || rt.End < rt.Start {
		return 0
	}
	return rt.End.Sub(rt.Start)
}

// ResponseTime returns the client-observed issue-to-completion duration.
func (rt *RequestTrace) ResponseTime() simclock.Duration {
	if !rt.Sealed || rt.End < rt.Issued {
		return 0
	}
	return rt.End.Sub(rt.Issued)
}

// Outcome values of a sealed trace.
const (
	OutcomeOK      = "ok"
	OutcomeDropped = "dropped"
)
