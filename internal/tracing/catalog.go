package tracing

// The span catalogue: every name an instrumentation point can append to a
// RequestTrace, with the package that emits it and what the span means.
// docs/TRACING.md is generated from this table (the SCENARIOS/METRICS
// pattern), so the taxonomy can never drift from the emitting code.

// Span and event names.  Spans carry a duration; events are instants.
const (
	// SpanRequest is the root span of every trace: client issue to sealed
	// completion (served, dropped or timed out).
	SpanRequest = "request"
	// EventGSLBRoute marks the global traffic director's routing decision:
	// which region the lane's table snapshot picked for the stream.
	EventGSLBRoute = "gslb.route"
	// SpanRTTSend is the geo half-RTT leg from the client's stream to the
	// routed region (latency-aware deployments only).
	SpanRTTSend = "rtt.send"
	// SpanRTTReturn is the half-RTT leg home after service.
	SpanRTTReturn = "rtt.return"
	// SpanForward is the inter-region overlay hop a forward plan adds when
	// the entry region hands the request to another region.
	SpanForward = "forward"
	// EventMailbox marks a cross-lane mailbox submission: the request left
	// its current engine lane and is delivered at the next epoch barrier.
	EventMailbox = "mailbox.post"
	// EventShardHop marks an intra-region hop to another engine shard when
	// the dispatch shard has no ACTIVE VM.
	EventShardHop = "shard.hop"
	// EventVMEnqueue marks arrival in a VM queue; the queue span below is
	// synthesised from it.
	EventVMEnqueue = "vm.enqueue"
	// EventRehome marks the completion re-homing hop back to the lane that
	// issued the request.
	EventRehome = "rehome"
	// SpanQueue is the synthesised VM queue wait: vm.enqueue to the service
	// start recorded in the outcome.
	SpanQueue = "queue"
	// SpanService is the synthesised VM service span: outcome start to end.
	SpanService = "service"
)

// SpanKind distinguishes catalogue rows.
type SpanKind string

// The three kinds of catalogue entries.
const (
	KindRoot    SpanKind = "root span"
	KindSpan    SpanKind = "span"
	KindInstant SpanKind = "instant"
)

// SpanDesc documents one catalogue entry.
type SpanDesc struct {
	Name   string
	Kind   SpanKind
	Source string
	Help   string
}

// Catalog returns the span taxonomy in lifecycle order.
func Catalog() []SpanDesc {
	return []SpanDesc{
		{SpanRequest, KindRoot, "internal/workload", "Client issue to sealed completion; args carry stream, request ID, weight, outcome, serving VM and region."},
		{EventGSLBRoute, KindInstant, "internal/acm", "Global traffic director routing decision: the routed region and the engine lane whose table snapshot picked it (lane g routes on health-plane replica g mod N)."},
		{SpanRTTSend, KindSpan, "internal/acm", "Half-RTT geo leg from the client stream to the routed region, from the deployment's ground-truth RTT matrix."},
		{SpanRTTReturn, KindSpan, "internal/acm", "Half-RTT geo leg home after service; the client observes completion at its end."},
		{SpanForward, KindSpan, "internal/acm", "Inter-region overlay hop added when the forward plan sends the request away from its entry region."},
		{EventMailbox, KindInstant, "internal/pcam", "Cross-lane submission (`VMC.Send`); the request is delivered on the destination engine lane at the next epoch barrier."},
		{EventShardHop, KindInstant, "internal/pcam", "Intra-region hop to the next engine shard because the dispatch shard had no ACTIVE VM."},
		{EventVMEnqueue, KindInstant, "internal/cloudsim", "Arrival in a VM queue; names the VM."},
		{EventRehome, KindInstant, "internal/cloudsim", "Completion fired off the issuing lane: the outcome is parked on the request, which rides the mailbox home to run the completion callback there."},
		{SpanQueue, KindSpan, "internal/tracing", "Synthesised VM queue wait: vm.enqueue to the outcome's service start."},
		{SpanService, KindSpan, "internal/tracing", "Synthesised VM service span: the outcome's start to end."},
	}
}
