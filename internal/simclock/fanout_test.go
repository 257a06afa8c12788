package simclock

import "testing"

// feedFanOut runs n measured epochs through a selector, each firing 10
// events at nsPerEvent[mode] host ns per event, and returns the mode of
// every epoch in order.
func feedFanOut(s *fanOutSelector, n int, nsPerEvent [2]int64) []fanOutMode {
	modes := make([]fanOutMode, n)
	for i := range modes {
		m := s.next()
		modes[i] = m
		s.observe(m, 10*nsPerEvent[m], 10)
	}
	return modes
}

// TestShardedFanOutSelectorTrialSlicesStartPooled: a fresh selector's trial
// alternates fanOutSlice-epoch slices, pool first, so a run too short to
// finish a trial still exercises the pool.
func TestShardedFanOutSelectorTrialSlicesStartPooled(t *testing.T) {
	var s fanOutSelector
	s.startTrial()
	modes := feedFanOut(&s, fanOutTrial, [2]int64{100, 100})
	for i, m := range modes {
		want := fanPool
		if (i/fanOutSlice)%2 == 1 {
			want = fanInline
		}
		if m != want {
			t.Fatalf("trial epoch %d ran %d, want %d (slices of %d, pool first)", i, m, want, fanOutSlice)
		}
	}
}

// TestShardedFanOutSelectorCommitsToCheaperMode: after a trial the selector
// runs the mode with the lower ns per event for the whole commit, and
// reports both modes' measured costs.
func TestShardedFanOutSelectorCommitsToCheaperMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		cost [2]int64
		want fanOutMode
	}{
		{"inline cheaper", [2]int64{fanInline: 50, fanPool: 80}, fanInline},
		{"pool cheaper", [2]int64{fanInline: 90, fanPool: 60}, fanPool},
		{"tie", [2]int64{fanInline: 70, fanPool: 70}, fanInline},
	} {
		var s fanOutSelector
		s.startTrial()
		feedFanOut(&s, fanOutTrial, tc.cost)
		for i, m := range feedFanOut(&s, fanOutCommit, tc.cost) {
			if m != tc.want {
				t.Fatalf("%s: commit epoch %d ran %d, want %d", tc.name, i, m, tc.want)
			}
		}
		if s.lastNs[fanInline] != float64(tc.cost[fanInline]) || s.lastNs[fanPool] != float64(tc.cost[fanPool]) {
			t.Fatalf("%s: last trial ns/event = %v, want %v", tc.name, s.lastNs, tc.cost)
		}
	}
}

// TestShardedFanOutSelectorRetrialsAtCadence: a new trial starts every
// fanOutTrial+fanOutCommit measured epochs, pool first, and it follows a
// change of which mode is cheaper.
func TestShardedFanOutSelectorRetrialsAtCadence(t *testing.T) {
	var s fanOutSelector
	s.startTrial()
	poolCheap, inlineCheap := [2]int64{fanInline: 90, fanPool: 60}, [2]int64{fanInline: 50, fanPool: 80}
	feedFanOut(&s, fanOutTrial+fanOutCommit, poolCheap)
	if s.next() != fanPool || s.trialLeft != fanOutTrial {
		t.Fatalf("after %d measured epochs: mode %d, trial epochs left %d; want a fresh pooled trial",
			fanOutTrial+fanOutCommit, s.next(), s.trialLeft)
	}
	modes := feedFanOut(&s, fanOutTrial+fanOutCommit, inlineCheap)
	pooled := 0
	for _, m := range modes {
		if m == fanPool {
			pooled++
		}
	}
	if pooled != fanOutTrial/2 {
		t.Fatalf("second cycle pooled %d epochs, want the trial's %d", pooled, fanOutTrial/2)
	}
	if modes[len(modes)-1] != fanInline {
		t.Fatal("the second commit did not follow inline becoming cheaper")
	}
	if s.epochs[fanPool]+s.epochs[fanInline] != 2*(fanOutTrial+fanOutCommit) {
		t.Fatalf("epoch counts %v, want %d in total", s.epochs, 2*(fanOutTrial+fanOutCommit))
	}
}

// TestShardedFanOutSelectorIgnoresEmptyEpochs: an epoch that fires no
// shard event measures only the barrier, so it is counted but moves neither
// the slices, the trial, the commit nor the measured costs.
func TestShardedFanOutSelectorIgnoresEmptyEpochs(t *testing.T) {
	var s fanOutSelector
	s.startTrial()
	cost := [2]int64{fanInline: 50, fanPool: 80}
	for i := 0; i < fanOutTrial; i++ {
		for j := 0; j < 3; j++ {
			before := s
			s.observe(s.next(), 1_000_000, 0)
			before.epochs[before.mode]++
			if s != before {
				t.Fatalf("an empty epoch changed more than its count: %+v -> %+v", before, s)
			}
		}
		feedFanOut(&s, 1, cost)
	}
	if s.lastNs[fanInline] != 50 || s.lastNs[fanPool] != 80 || s.next() != fanInline {
		t.Fatalf("trial with empty epochs measured %v and chose %d, want [50 80] and inline", s.lastNs, s.next())
	}
	if got, want := s.epochs[fanInline]+s.epochs[fanPool], uint64(4*fanOutTrial); got != want {
		t.Fatalf("counted %d epochs, want %d", got, want)
	}
}

// TestShardedFanOutRunsBothModes: a run of at least two slices with a pool
// runs both modes, whatever the host measures, so the multi-core race and
// equivalence suites keep exercising the pool; without a pool every epoch
// is inline.
func TestShardedFanOutRunsBothModes(t *testing.T) {
	const epochs = 2*fanOutSlice + 4
	for _, workers := range []int{1, 2} {
		se := NewShardedEngine(4, 3, 100*Millisecond, workers)
		for s := 0; s < 4; s++ {
			for ep := 0; ep < epochs; ep++ {
				se.Shard(s).ScheduleFunc(Duration(float64(ep)*0.1+0.05), func(*Engine) {})
			}
		}
		if err := se.Run(Duration(epochs) * 100 * Millisecond); err != nil {
			t.Fatalf("Run: %v", err)
		}
		st := se.FanOut()
		if st.InlineEpochs+st.PooledEpochs != epochs {
			t.Fatalf("workers=%d: counted %d+%d epochs, want %d", workers, st.InlineEpochs, st.PooledEpochs, epochs)
		}
		if workers == 1 && st.PooledEpochs != 0 {
			t.Fatalf("workers=1 pooled %d epochs without a pool", st.PooledEpochs)
		}
		if workers > 1 && (st.InlineEpochs == 0 || st.PooledEpochs == 0) {
			t.Fatalf("workers=%d ran %+v, want both inline and pooled epochs", workers, st)
		}
	}
}
