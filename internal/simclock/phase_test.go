package simclock

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// TestParallelPhaseIsABarrier verifies that every index completes before
// ParallelPhase returns, on Run's pool and inline alike, and that the
// control timeline can schedule again afterwards.
func TestParallelPhaseIsABarrier(t *testing.T) {
	for _, workers := range []int{1, 4} {
		se := NewShardedEngine(4, 1, 100*Millisecond, workers)
		var done atomic.Int32
		fired := false
		se.Control().ScheduleFunc(1, func(e *Engine) {
			se.ParallelPhase(32, func(i int) { done.Add(1) })
			if got := done.Load(); got != 32 {
				t.Errorf("workers=%d: barrier leaked: %d of 32 done when ParallelPhase returned", workers, got)
			}
			// Scheduling after the phase must work again.
			e.ScheduleFunc(1, func(*Engine) { fired = true })
		})
		if err := se.Run(3); err != nil {
			t.Fatalf("workers=%d: Run: %v", workers, err)
		}
		if !fired {
			t.Fatalf("workers=%d: follow-up event after the parallel phase never fired", workers)
		}
	}
}

// TestParallelPhaseInlineRunsInOrder pins the inline path: one worker, or a
// call made outside Run, visits the indices in order on the caller's
// goroutine, and n <= 0 calls nothing.
func TestParallelPhaseInlineRunsInOrder(t *testing.T) {
	se := NewShardedEngine(4, 1, 100*Millisecond, 4)
	var order []int
	se.ParallelPhase(5, func(i int) { order = append(order, i) }) // outside Run: no pool
	se.ParallelPhase(0, func(int) { order = append(order, -1) })
	se.ParallelPhase(-3, func(int) { order = append(order, -1) })
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("inline ParallelPhase visited %v, want %v", order, want)
	}
}

// TestParallelPhaseRejectsScheduling pins the shard-local mutation audit: a
// schedule from inside the phase onto the control timeline or onto a shard
// engine panics instead of racing on an event queue, and both guard flags
// are restored when the panic unwinds.  One worker keeps the phase inline,
// so the handler's recover observes the panic.
func TestParallelPhaseRejectsScheduling(t *testing.T) {
	for _, target := range []string{"control", "shard"} {
		se := NewShardedEngine(2, 1, 100*Millisecond, 1)
		onto := se.Control()
		if target == "shard" {
			onto = se.Shard(1)
		}
		var recovered any
		var inPhase, executing bool
		se.Control().ScheduleFunc(1, func(e *Engine) {
			func() {
				defer func() { recovered = recover() }()
				se.ParallelPhase(2, func(int) {
					onto.ScheduleFunc(1, func(*Engine) {})
				})
			}()
			inPhase, executing = se.inShardPhase.Load(), e.executing.Load()
		})
		if err := se.Run(2); err != nil {
			t.Fatalf("%s: Run: %v", target, err)
		}
		if msg, _ := recovered.(string); !strings.Contains(msg, "during a parallel phase") {
			t.Fatalf("%s: Schedule inside ParallelPhase recovered %v, want the guard's panic", target, recovered)
		}
		if inPhase || !executing {
			t.Fatalf("%s: after the panic unwound inShardPhase = %v, control executing = %v; want false, true", target, inPhase, executing)
		}
	}
}

func TestParallelPhaseRejectsNesting(t *testing.T) {
	se := NewShardedEngine(2, 1, 100*Millisecond, 1)
	var recovered any
	se.Control().ScheduleFunc(1, func(*Engine) {
		defer func() { recovered = recover() }()
		se.ParallelPhase(1, func(int) {
			se.ParallelPhase(1, func(int) {})
		})
	})
	if err := se.Run(2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if msg, _ := recovered.(string); !strings.Contains(msg, "ParallelPhase inside a parallel phase") {
		t.Fatalf("nested ParallelPhase recovered %v, want the nesting panic", recovered)
	}
}
