package tracing

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/simclock"
)

func TestSamplingIsPureAndProportional(t *testing.T) {
	tr := NewTracer(99, 0.1)
	const n = 200000
	sampled := 0
	for id := uint64(0); id < n; id++ {
		a := tr.Sampled("stream-a", id)
		if b := tr.Sampled("stream-a", id); b != a {
			t.Fatalf("sampling decision for id %d not stable: %v then %v", id, a, b)
		}
		if a {
			sampled++
		}
	}
	got := float64(sampled) / n
	if math.Abs(got-0.1) > 0.01 {
		t.Fatalf("sampled fraction %.4f, want ~0.10", got)
	}
	// A fresh tracer with the same seed makes identical decisions — the
	// sample set is a function of (seed, stream, id), not tracer state.
	tr2 := NewTracer(99, 0.1)
	for id := uint64(0); id < 1000; id++ {
		if tr.Sampled("stream-a", id) != tr2.Sampled("stream-a", id) {
			t.Fatalf("tracer identity leaked into the sampling decision at id %d", id)
		}
	}
	// Different streams sample different sets (with overwhelming probability
	// over 1000 ids at 10%).
	same := true
	for id := uint64(0); id < 1000; id++ {
		if tr.Sampled("stream-a", id) != tr.Sampled("stream-b", id) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("stream name does not reach the sampling decision")
	}
}

func TestSamplingClamps(t *testing.T) {
	off := NewTracer(1, 0)
	all := NewTracer(1, 1)
	for id := uint64(0); id < 100; id++ {
		if off.Sampled("s", id) {
			t.Fatal("fraction 0 sampled a request")
		}
		if !all.Sampled("s", id) {
			t.Fatal("fraction 1 skipped a request")
		}
	}
	var nilTracer *Tracer
	if nilTracer.Sampled("s", 1) {
		t.Fatal("nil tracer sampled a request")
	}
	if nilTracer.Len() != 0 || nilTracer.Traces() != nil {
		t.Fatal("nil tracer reports collected traces")
	}
}

func TestNilTraceMethodsAreSafe(t *testing.T) {
	var rt *RequestTrace
	rt.Event(EventVMEnqueue, 1, "")
	rt.Span(SpanForward, 1, 2, "")
	rt.Seal(OutcomeOK, 1, 2, "vm", "region")
}

func TestSealExactlyOnce(t *testing.T) {
	tr := NewTracer(7, 1)
	rt := tr.Start("s", 42, 3, 10)
	if rt == nil {
		t.Fatal("fraction 1 returned nil trace")
	}
	if rt.Weight != 3 {
		t.Fatalf("weight %d, want 3", rt.Weight)
	}
	rt.Event(EventVMEnqueue, 11, "vm=vm-1")
	rt.Seal(OutcomeOK, 12, 14, "vm-1", "region1")
	// A second Seal must not re-seal or re-collect.
	rt.Seal(OutcomeDropped, 0, 99, "vm-2", "region2")
	rt.Event(EventRehome, 15, "")
	if tr.Len() != 1 {
		t.Fatalf("collected %d traces, want 1", tr.Len())
	}
	got := tr.Traces()[0]
	if got.Outcome != OutcomeOK || got.VM != "vm-1" || len(got.Events) != 1 {
		t.Fatalf("second Seal or post-seal Event mutated the trace: %+v", got)
	}
	if got.QueueWait() != 1 {
		t.Fatalf("QueueWait = %v, want 1s", got.QueueWait())
	}
	if got.ServiceTime() != 2 {
		t.Fatalf("ServiceTime = %v, want 2s", got.ServiceTime())
	}
	if got.ResponseTime() != 4 {
		t.Fatalf("ResponseTime = %v, want 4s", got.ResponseTime())
	}
}

func TestTracesCanonicalOrder(t *testing.T) {
	tr := NewTracer(3, 1)
	// Seal in an arbitrary wall-clock order; Traces must sort by ID.
	for _, id := range []uint64{5, 1, 9, 3, 7} {
		rt := tr.Start("s", id, 1, 0)
		rt.Seal(OutcomeOK, 1, 2, "vm", "r")
	}
	traces := tr.Traces()
	for i := 1; i < len(traces); i++ {
		if traces[i-1].TraceID > traces[i].TraceID {
			t.Fatalf("traces not in canonical ID order at %d", i)
		}
	}
}

func TestChromeExport(t *testing.T) {
	tr := NewTracer(11, 1)
	rt := tr.Start("browser-1", 1, 1, 0)
	rt.Event(EventGSLBRoute, 0, "region=region1 lane=0")
	rt.Span(SpanRTTSend, 0, simclock.Duration(0.04), "rtt=80ms")
	rt.Event(EventVMEnqueue, simclock.Time(0.04), "vm=vm-1")
	rt.Seal(OutcomeOK, simclock.Time(0.05), simclock.Time(0.15), "vm-1", "region1")

	fr := simclock.NewFlightRecorder(2)
	fr.RecordPhase(0.1, "probe", 3)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Traces(), fr); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	byName := map[string]int{}
	var rootArgs map[string]any
	var rootDur, queueTs, queueDur float64
	for _, ev := range parsed.TraceEvents {
		byName[ev.Name]++
		switch ev.Name {
		case SpanRequest:
			rootArgs, rootDur = ev.Args, ev.Dur
		case SpanQueue:
			queueTs, queueDur = ev.Ts, ev.Dur
		}
	}
	for _, want := range []string{SpanRequest, EventGSLBRoute, SpanRTTSend, SpanQueue, SpanService, "probe", "thread_name", "process_name"} {
		if byName[want] == 0 {
			t.Errorf("export missing %q event", want)
		}
	}
	if rootArgs["trace_id"] != tr.Traces()[0].IDString() {
		t.Fatalf("root span trace_id = %v, want %s", rootArgs["trace_id"], tr.Traces()[0].IDString())
	}
	// 0.15 s response in microseconds.
	if math.Abs(rootDur-150000) > 1e-6 {
		t.Fatalf("root span dur = %v µs, want 150000", rootDur)
	}
	// Queue wait synthesised from vm.enqueue (0.04 s) to service start (0.05 s).
	if math.Abs(queueTs-40000) > 1e-6 || math.Abs(queueDur-10000) > 1e-6 {
		t.Fatalf("queue span (ts=%v, dur=%v) µs, want (40000, 10000)", queueTs, queueDur)
	}
}

func TestChromeExportUnsealedTrace(t *testing.T) {
	tr := NewTracer(11, 1)
	rt := tr.Start("s", 1, 1, 0)
	rt.Span(SpanForward, 0, simclock.Duration(0.01), "")
	// Never sealed — the exporter must still render it (outcome "unsealed")
	// without panicking, spanning to its last event.
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*RequestTrace{rt}, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !strings.Contains(string(out), `"outcome":"unsealed"`) {
		t.Fatal("unsealed trace not marked in export")
	}
}

func TestBreakdown(t *testing.T) {
	tr := NewTracer(5, 1)
	for id := uint64(0); id < 10; id++ {
		rt := tr.Start("s", id, 1, 0)
		rt.Span(SpanRTTSend, 0, simclock.Duration(0.05), "")
		rt.Event(EventVMEnqueue, simclock.Time(0.05), "")
		rt.Seal(OutcomeOK, simclock.Time(0.07), simclock.Time(0.17), "vm", "r")
	}
	stats := Breakdown(tr.Traces())
	byName := map[string]PhaseStats{}
	for _, ps := range stats {
		byName[ps.Name] = ps
	}
	req := byName[SpanRequest]
	if req.Count != 10 || math.Abs(req.Mean-0.17) > 1e-9 {
		t.Fatalf("request stats = %+v, want count 10 mean 0.17", req)
	}
	if req.Share != 1 {
		t.Fatalf("root share = %v, want 1", req.Share)
	}
	svc := byName[SpanService]
	if svc.Count != 10 || math.Abs(svc.Mean-0.10) > 1e-9 {
		t.Fatalf("service stats = %+v, want count 10 mean 0.10", svc)
	}
	q := byName[SpanQueue]
	if q.Count != 10 || math.Abs(q.Mean-0.02) > 1e-9 {
		t.Fatalf("queue stats = %+v, want count 10 mean 0.02", q)
	}
	// Catalogue order: request before rtt.send before queue before service.
	idx := map[string]int{}
	for i, ps := range stats {
		idx[ps.Name] = i
	}
	if !(idx[SpanRequest] < idx[SpanRTTSend] && idx[SpanRTTSend] < idx[SpanQueue] && idx[SpanQueue] < idx[SpanService]) {
		t.Fatalf("breakdown rows out of catalogue order: %v", stats)
	}
	table := BreakdownTable(tr.Traces())
	if !strings.Contains(table, "phase") || !strings.Contains(table, SpanService) {
		t.Fatalf("table missing header or rows:\n%s", table)
	}
	if got := BreakdownTable(nil); !strings.Contains(got, "no sealed traces") {
		t.Fatalf("empty table = %q", got)
	}
}

func TestCatalogCoversAllNames(t *testing.T) {
	names := map[string]bool{}
	for _, d := range Catalog() {
		if d.Name == "" || d.Help == "" || d.Source == "" {
			t.Fatalf("incomplete catalogue row: %+v", d)
		}
		if names[d.Name] {
			t.Fatalf("duplicate catalogue row %q", d.Name)
		}
		names[d.Name] = true
	}
	for _, want := range []string{SpanRequest, EventGSLBRoute, SpanRTTSend, SpanRTTReturn,
		SpanForward, EventMailbox, EventShardHop, EventVMEnqueue, EventRehome, SpanQueue, SpanService} {
		if !names[want] {
			t.Fatalf("catalogue missing %q", want)
		}
	}
}
