package tracing

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/simclock"
)

// Chrome trace-event export: the collected request traces and the engine
// flight recorder rendered as the JSON object format of the Trace Event
// specification, loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
// Requests live in pid 1 (one thread per trace, canonical order); the engine
// flight recorder lives in pid 2 (one thread per shard lane plus the control
// timeline).  Timestamps are sim-time microseconds.
//
// Byte determinism: traces are exported in canonical trace-ID order, events
// within a trace in causal append order, flight-recorder slices in (epoch,
// lane) order, and args maps marshal with sorted keys (encoding/json) — so
// the bytes depend only on the simulated history, never on worker
// interleavings.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const (
	pidRequests = 1
	pidEngine   = 2
)

// us converts a sim timestamp to trace-event microseconds.
func us(t simclock.Time) float64 { return t.Seconds() * 1e6 }

// usd converts a sim duration to trace-event microseconds.
func usd(d simclock.Duration) float64 { return d.Seconds() * 1e6 }

// requestEvents renders one trace as trace events on its own thread.
func requestEvents(rt *RequestTrace, tid int) []chromeEvent {
	end := rt.End
	if !rt.Sealed {
		end = rt.Issued
		for _, ev := range rt.Events {
			if at := ev.At.Add(ev.Dur); at > end {
				end = at
			}
		}
	}
	outcome := rt.Outcome
	if !rt.Sealed {
		outcome = "unsealed"
	}
	out := []chromeEvent{
		{Name: "thread_name", Ph: "M", Pid: pidRequests, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("%s #%d", rt.Stream, rt.RequestID)}},
		{Name: SpanRequest, Cat: "request", Ph: "X", Ts: us(rt.Issued), Dur: usd(end.Sub(rt.Issued)),
			Pid: pidRequests, Tid: tid,
			Args: map[string]any{
				"trace_id": rt.IDString(), "stream": rt.Stream, "request_id": rt.RequestID,
				"weight": rt.Weight, "outcome": outcome, "vm": rt.VM, "region": rt.Region,
			}},
	}
	for _, ev := range rt.Events {
		ce := chromeEvent{Name: ev.Name, Cat: "request", Ts: us(ev.At), Pid: pidRequests, Tid: tid}
		if ev.Detail != "" {
			ce.Args = map[string]any{"detail": ev.Detail}
		}
		if ev.Dur > 0 {
			ce.Ph, ce.Dur = "X", usd(ev.Dur)
		} else {
			ce.Ph, ce.S = "i", "t"
		}
		out = append(out, ce)
	}
	if rt.Sealed && rt.Outcome == OutcomeOK {
		if enq, ok := rt.enqueueAt(); ok && rt.Start >= enq {
			out = append(out, chromeEvent{Name: SpanQueue, Cat: "request", Ph: "X",
				Ts: us(enq), Dur: usd(rt.Start.Sub(enq)), Pid: pidRequests, Tid: tid})
		}
		out = append(out, chromeEvent{Name: SpanService, Cat: "request", Ph: "X",
			Ts: us(rt.Start), Dur: usd(rt.End.Sub(rt.Start)), Pid: pidRequests, Tid: tid,
			Args: map[string]any{"vm": rt.VM}})
	}
	return out
}

// flightEvents renders the flight recorder as per-lane busy slices, barrier
// drains and control-phase instants.
func flightEvents(fr *simclock.FlightRecorder) []chromeEvent {
	if fr == nil {
		return nil
	}
	util := fr.Utilization()
	lanes := len(util)
	laneName := func(lane int) string {
		if lane == lanes-1 {
			return "control"
		}
		return fmt.Sprintf("shard%d", lane)
	}
	var out []chromeEvent
	for lane := 0; lane < lanes; lane++ {
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", Pid: pidEngine, Tid: lane + 1,
			Args: map[string]any{"name": laneName(lane)}})
	}
	for _, rec := range fr.Epochs() {
		if rec.Fired > 0 {
			out = append(out, chromeEvent{Name: "epoch", Cat: "engine", Ph: "X",
				Ts: us(rec.Start), Dur: usd(rec.Busy()), Pid: pidEngine, Tid: rec.Shard + 1,
				Args: map[string]any{"fired": rec.Fired}})
		}
		if rec.Drained > 0 {
			out = append(out, chromeEvent{Name: "mailbox.drain", Cat: "engine", Ph: "i", S: "t",
				Ts: us(rec.End), Pid: pidEngine, Tid: rec.Shard + 1,
				Args: map[string]any{"posts": rec.Drained}})
		}
	}
	for _, ph := range fr.Phases() {
		out = append(out, chromeEvent{Name: ph.Name, Cat: "engine", Ph: "i", S: "t",
			Ts: us(ph.At), Pid: pidEngine, Tid: lanes,
			Args: map[string]any{"items": ph.Items}})
	}
	return out
}

// WriteChrome writes the collected traces (canonical order) and the flight
// recorder (nil allowed) as Chrome trace-event JSON.
func WriteChrome(w io.Writer, traces []*RequestTrace, fr *simclock.FlightRecorder) error {
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: pidRequests, Tid: 0, Args: map[string]any{"name": "requests"}},
	}
	for i, rt := range traces {
		events = append(events, requestEvents(rt, i+1)...)
	}
	if fr != nil {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pidEngine, Tid: 0,
			Args: map[string]any{"name": "engine"}})
		events = append(events, flightEvents(fr)...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
