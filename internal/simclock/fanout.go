package simclock

import "fmt"

// This file is the fan-out selector of the event loop: when a ShardedEngine
// has a worker pool, it decides per epoch whether the shard phase runs on
// the pool or inline on the coordinating goroutine, from measured host time.
//
// Both modes run every shard's loop to the same epoch end before the same
// serial barrier, and the determinism contract already makes the output
// independent of how the shard loops are spread over goroutines, so the
// choice can never change a simulated byte.  It only changes host time: an
// epoch holds tens of microseconds of work, and waking a pool worker costs
// about as much, so on a busy or small host the pool can lose to the
// coordinator running the shards itself.
//
// The rule is a paired trial.  A trial alternates short slices of pooled and
// inline epochs, pool first, and compares the two modes' host ns per shard
// event; the cheaper mode is then committed to for a long stretch, after
// which the next trial starts.  Alternating slices pair the two modes over
// the same phase of the run (a load surge or a failover lands in both), and
// the long commit keeps the losing mode to about 3% of the epochs.  Epochs
// that fire no shard event measure only the barrier and are ignored.

// fanOutMode is how one epoch's shard phase runs.
type fanOutMode uint8

const (
	fanInline fanOutMode = iota // the shard loops run on the coordinator, in shard order
	fanPool                     // the shard loops run on the worker pool
)

const (
	// fanOutSlice is the number of measured epochs a trial runs in one mode
	// before switching to the other: short enough that both modes see the
	// same phase of the run, long enough that a worker's cold cache after a
	// switch is a small part of the slice.
	fanOutSlice = 8
	// fanOutTrial is the number of measured epochs of one trial: eight
	// slices of each mode, so one outlier epoch moves a mode's mean by
	// about 1/64 of its cost.
	fanOutTrial = 128
	// fanOutCommit is the number of measured epochs run in the chosen mode
	// before the next trial.  Half of each trial runs the losing mode, so
	// the loser's share of the epochs is 64/(128+2048), under 3%.
	fanOutCommit = 2048
)

// fanOutSelector is the per-engine state of the paired trial.  It is fed one
// observation per epoch and read once per epoch, both from the coordinating
// goroutine at the barrier, so it needs no synchronisation.
type fanOutSelector struct {
	mode       fanOutMode // mode of the current slice, or the committed mode
	trialLeft  int        // measured epochs left in the running trial; 0 while committed
	sliceLeft  int        // measured epochs left in the running slice
	commitLeft int        // measured epochs left in the commit
	ns         [2]int64   // host ns per mode over the running trial
	events     [2]uint64  // shard events per mode over the running trial
	lastNs     [2]float64 // host ns per event per mode of the last completed trial
	epochs     [2]uint64  // epochs run per mode, measured or not
}

// startTrial begins a trial with a pooled slice, so even a run too short to
// finish one trial exercises the pool.
func (s *fanOutSelector) startTrial() {
	s.mode, s.trialLeft, s.sliceLeft = fanPool, fanOutTrial, fanOutSlice
	s.ns, s.events = [2]int64{}, [2]uint64{}
}

// next returns the mode the next epoch's shard phase should run in.
func (s *fanOutSelector) next() fanOutMode { return s.mode }

// observe records one epoch that ran in mode, took ns of host time from the
// start of its shard phase to the end of its barrier hooks and fired events
// shard events.
func (s *fanOutSelector) observe(mode fanOutMode, ns int64, events uint64) {
	s.epochs[mode]++
	if events == 0 {
		return
	}
	if s.trialLeft == 0 {
		if s.commitLeft--; s.commitLeft == 0 {
			s.startTrial()
		}
		return
	}
	s.ns[mode] += ns
	s.events[mode] += events
	if s.sliceLeft--; s.sliceLeft == 0 {
		s.mode ^= fanPool // the other mode
		s.sliceLeft = fanOutSlice
	}
	if s.trialLeft--; s.trialLeft > 0 {
		return
	}
	for m := range s.lastNs {
		if s.events[m] > 0 {
			s.lastNs[m] = float64(s.ns[m]) / float64(s.events[m])
		}
	}
	// A tie goes to inline, which leaves the other cores idle.
	s.mode = fanInline
	if s.lastNs[fanPool] < s.lastNs[fanInline] {
		s.mode = fanPool
	}
	s.commitLeft = fanOutCommit
}

// FanOutStats reports how a ShardedEngine ran its shard phases.  The counts
// and costs depend on the host, so they are for reports and benchmarks only:
// they never enter a metrics registry, a series or a golden.
type FanOutStats struct {
	// InlineEpochs and PooledEpochs count the epochs whose shard phase ran
	// on the coordinating goroutine and on the worker pool.  Without a pool
	// (Workers() == 1) every epoch is inline.
	InlineEpochs, PooledEpochs uint64
	// InlineNsPerEvent and PooledNsPerEvent are each mode's host ns per
	// shard event in the last completed trial (zero before one completes).
	InlineNsPerEvent, PooledNsPerEvent float64
}

// PooledShare returns the fraction of epochs that ran on the pool.
func (s FanOutStats) PooledShare() float64 {
	total := s.InlineEpochs + s.PooledEpochs
	if total == 0 {
		return 0
	}
	return float64(s.PooledEpochs) / float64(total)
}

// String renders the stats as one report line.
func (s FanOutStats) String() string {
	return fmt.Sprintf("inline epochs=%d pooled epochs=%d (%.1f%% pooled), last trial ns/event inline=%.0f pooled=%.0f",
		s.InlineEpochs, s.PooledEpochs, 100*s.PooledShare(), s.InlineNsPerEvent, s.PooledNsPerEvent)
}

// FanOut returns the engine's fan-out stats over every Run so far.
func (se *ShardedEngine) FanOut() FanOutStats {
	f := &se.fan
	return FanOutStats{
		InlineEpochs: f.epochs[fanInline], PooledEpochs: f.epochs[fanPool],
		InlineNsPerEvent: f.lastNs[fanInline], PooledNsPerEvent: f.lastNs[fanPool],
	}
}
