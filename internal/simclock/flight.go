package simclock

import (
	"fmt"
	"strings"
)

// The engine flight recorder: per-epoch, per-shard accounting of what the
// parallel event loop actually did — events fired, the busy prefix and idle
// tail of each epoch in sim-time, mailbox posts delivered at each barrier —
// plus named control-phase records (the VMC's tick phases).  This is the
// epoch-utilization record the cross-region work-stealing roadmap item
// needs: it shows, shard by shard and epoch by epoch, where the event loop
// had slack.
//
// Determinism: the recorder is written only from the barrier context of
// ShardedEngine.Run (and, for phases, from control-timeline handlers), where
// exactly one goroutine runs, and every recorded quantity — fired counts,
// event timestamps, drained posts — is part of the engine's determinism
// contract.  The records are therefore byte-identical for every
// EventWorkers/GOMAXPROCS value.  "Busy" is sim-time, not wall-clock: the
// span from the epoch start to the shard's last fired event.  That is the
// deterministic proxy for how much of the epoch the shard's queue had work,
// which is what a work-stealing policy would balance.

// EpochRecord is one shard's (or the control timeline's) slice of one epoch.
// Records are kept only for slices that did work (Fired > 0 or Drained > 0);
// idle slices still feed the aggregate utilization totals.
type EpochRecord struct {
	// Shard is the engine lane: 0..n-1 over n shards, or n for the
	// control timeline.
	Shard int
	// Start and End bound the epoch.
	Start, End Time
	// LastEventAt is the timestamp of the slice's last fired event.
	LastEventAt Time
	// Fired counts events the slice executed.
	Fired uint64
	// Drained counts mailbox posts delivered at this barrier (control slice
	// only; zero on shard slices).
	Drained uint64
}

// Busy returns the sim-time span from the epoch start to the last fired
// event — the portion of the epoch the shard's queue had work.
func (r EpochRecord) Busy() Duration {
	if r.Fired == 0 || r.LastEventAt < r.Start {
		return 0
	}
	return r.LastEventAt.Sub(r.Start)
}

// PhaseRecord is one named control-phase execution: a controller ran a
// phase of its tick at At and processed Items units of deterministic work.
type PhaseRecord struct {
	At    Time
	Name  string
	Items uint64
}

// ShardUtilization aggregates one lane's records over the whole run.
type ShardUtilization struct {
	// Shard is the engine lane (the shard count = control timeline).
	Shard int
	// Fired is the total events executed.
	Fired uint64
	// Drained is the total mailbox posts delivered (control lane only).
	Drained uint64
	// Busy and Idle partition the lane's sim-time across all epochs.
	Busy, Idle Duration
	// BusyEpochs counts epochs in which the lane fired at least one event;
	// Epochs is the total epoch count of the run.
	BusyEpochs, Epochs uint64
}

// Utilization returns Busy / (Busy + Idle), zero for an all-idle lane.
func (u ShardUtilization) Utilization() float64 {
	total := u.Busy + u.Idle
	if total <= 0 {
		return 0
	}
	return u.Busy.Seconds() / total.Seconds()
}

// FlightRecorder accumulates epoch and phase records.  It is not safe for
// concurrent use; every write happens at an epoch barrier or on the control
// timeline, where exactly one goroutine runs.
type FlightRecorder struct {
	lanes  int
	agg    []ShardUtilization
	epochs []EpochRecord
	phases []PhaseRecord
	count  uint64 // completed epochs
}

// NewFlightRecorder returns a recorder for an engine with the given number
// of shards (the control timeline gets lane index shards).
func NewFlightRecorder(shards int) *FlightRecorder {
	fr := &FlightRecorder{lanes: shards + 1, agg: make([]ShardUtilization, shards+1)}
	for i := range fr.agg {
		fr.agg[i].Shard = i
	}
	return fr
}

// recordEpoch folds one lane's slice of an epoch into the aggregates and,
// when the slice did work, appends a detailed record.
func (fr *FlightRecorder) recordEpoch(shard int, start, end, lastEventAt Time, fired, drained uint64) {
	rec := EpochRecord{Shard: shard, Start: start, End: end, LastEventAt: lastEventAt, Fired: fired, Drained: drained}
	a := &fr.agg[shard]
	a.Fired += fired
	a.Drained += drained
	busy := rec.Busy()
	a.Busy += busy
	a.Idle += end.Sub(start) - busy
	if fired > 0 {
		a.BusyEpochs++
	}
	if fired > 0 || drained > 0 {
		fr.epochs = append(fr.epochs, rec)
	}
}

// epochDone marks one whole epoch complete.
func (fr *FlightRecorder) epochDone() { fr.count++ }

// RecordPhase appends a named control-phase record.  Callers must be on the
// control timeline (a controller tick, an epoch barrier).
func (fr *FlightRecorder) RecordPhase(at Time, name string, items uint64) {
	if fr == nil {
		return
	}
	fr.phases = append(fr.phases, PhaseRecord{At: at, Name: name, Items: items})
}

// EpochCount returns the number of completed epochs.
func (fr *FlightRecorder) EpochCount() uint64 { return fr.count }

// Epochs returns the detailed per-slice records (work-bearing slices only),
// in (epoch, lane) order.
func (fr *FlightRecorder) Epochs() []EpochRecord { return fr.epochs }

// Phases returns the control-phase records in execution order.
func (fr *FlightRecorder) Phases() []PhaseRecord { return fr.phases }

// Utilization returns the per-lane aggregates in lane order, the epoch count
// filled in.
func (fr *FlightRecorder) Utilization() []ShardUtilization {
	out := make([]ShardUtilization, len(fr.agg))
	copy(out, fr.agg)
	for i := range out {
		out[i].Epochs = fr.count
	}
	return out
}

// Table renders the per-lane utilization aggregates as a report table.  The
// last lane is the control timeline.
func (fr *FlightRecorder) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %6s %12s %8s\n",
		"lane", "fired", "busy(s)", "idle(s)", "util", "busy-epochs", "drained")
	for _, u := range fr.Utilization() {
		lane := fmt.Sprintf("shard%d", u.Shard)
		if u.Shard == fr.lanes-1 {
			lane = "control"
		}
		fmt.Fprintf(&b, "%-8s %10d %10.3f %10.3f %5.1f%% %6d/%-5d %8d\n",
			lane, u.Fired, u.Busy.Seconds(), u.Idle.Seconds(),
			100*u.Utilization(), u.BusyEpochs, u.Epochs, u.Drained)
	}
	return b.String()
}
