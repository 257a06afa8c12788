package simclock

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	eng := NewEngine(1)
	var order []float64
	eng.ScheduleFunc(5, func(*Engine) { order = append(order, 5) })
	eng.ScheduleFunc(1, func(*Engine) { order = append(order, 1) })
	eng.ScheduleFunc(3, func(*Engine) { order = append(order, 3) })
	eng.RunUntilEmpty()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 3 {
		t.Fatalf("expected 3 events, got %d", len(order))
	}
	if eng.Now() != 5 {
		t.Fatalf("clock should end at 5, got %v", eng.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	eng := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.ScheduleFunc(2, func(*Engine) { order = append(order, i) })
	}
	eng.RunUntilEmpty()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineHorizon(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	eng.ScheduleFunc(1, func(*Engine) { fired++ })
	eng.ScheduleFunc(100, func(*Engine) { fired++ })
	err := eng.Run(10)
	if err != ErrHorizonReached {
		t.Fatalf("expected ErrHorizonReached, got %v", err)
	}
	if fired != 1 {
		t.Fatalf("expected 1 event before the horizon, got %d", fired)
	}
	if eng.Now() != 10 {
		t.Fatalf("clock should stop at the horizon, got %v", eng.Now())
	}
}

// TestEngineRunNeverMovesClockBackwards pins that a horizon before Now
// leaves the clock where it is: Run still reports ErrHorizonReached for the
// event pending past it, and a later Schedule lands after Now instead of
// before zero.
func TestEngineRunNeverMovesClockBackwards(t *testing.T) {
	eng := NewEngine(1)
	eng.ScheduleFunc(10, func(*Engine) {})
	eng.ScheduleFunc(20, func(*Engine) {})
	if err := eng.Run(15); err != ErrHorizonReached || eng.Now() != 15 {
		t.Fatalf("Run(15) = %v at %v, want ErrHorizonReached at 15", err, eng.Now())
	}
	if err := eng.Run(5); err != ErrHorizonReached || eng.Now() != 15 {
		t.Fatalf("Run(5) = %v at %v, want ErrHorizonReached with the clock left at 15", err, eng.Now())
	}

	fresh := NewEngine(1)
	fresh.ScheduleFunc(1, func(*Engine) {})
	if err := fresh.Run(-1); err != ErrHorizonReached || fresh.Now() != 0 {
		t.Fatalf("Run(-1) on a fresh engine = %v at %v, want ErrHorizonReached at 0", err, fresh.Now())
	}
	fresh.ScheduleFunc(0.5, func(*Engine) {}) // panicked "before zero" when Run(-1) set the clock to -1
	if got := fresh.PendingTimes(); len(got) != 2 || got[0] != 0.5 || got[1] != 1 {
		t.Fatalf("pending after Run(-1) = %v, want [0.5 1]", got)
	}
}

func TestEngineStop(t *testing.T) {
	eng := NewEngine(1)
	count := 0
	eng.Ticker(1, func(e *Engine) {
		count++
		if count == 5 {
			e.Stop()
		}
	})
	if err := eng.Run(1000); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if count != 5 {
		t.Fatalf("expected Stop after 5 ticks, got %d", count)
	}
}

func TestEngineScheduleInPastClamps(t *testing.T) {
	eng := NewEngine(1)
	eng.ScheduleFunc(10, func(e *Engine) {
		e.ScheduleAt(2, EventFunc(func(e2 *Engine) {
			if e2.Now() < 10 {
				t.Fatalf("event scheduled in the past fired at %v", e2.Now())
			}
		}))
	})
	eng.RunUntilEmpty()
}

func TestTickerStop(t *testing.T) {
	eng := NewEngine(1)
	count := 0
	var stop func()
	stop = eng.Ticker(1, func(e *Engine) {
		count++
		if count == 3 {
			stop()
		}
	})
	eng.Run(100)
	if count != 3 {
		t.Fatalf("ticker should stop after 3 ticks, got %d", count)
	}
}

func TestEngineStep(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	eng.ScheduleFunc(1, func(*Engine) { fired++ })
	eng.ScheduleFunc(2, func(*Engine) { fired++ })
	if !eng.Step() || fired != 1 {
		t.Fatalf("first step should fire one event (fired=%d)", fired)
	}
	if !eng.Step() || fired != 2 {
		t.Fatalf("second step should fire one event (fired=%d)", fired)
	}
	if eng.Step() {
		t.Fatal("no events left, Step must return false")
	}
}

func TestEnginePendingTimes(t *testing.T) {
	eng := NewEngine(1)
	eng.ScheduleFunc(3, func(*Engine) {})
	eng.ScheduleFunc(1, func(*Engine) {})
	eng.ScheduleFunc(2, func(*Engine) {})
	times := eng.PendingTimes()
	if len(times) != 3 || times[0] != 1 || times[1] != 2 || times[2] != 3 {
		t.Fatalf("unexpected pending times %v", times)
	}
}

func TestTimeArithmetic(t *testing.T) {
	var tm Time = 10
	if tm.Add(5) != 15 {
		t.Fatal("Add failed")
	}
	if tm.Add(5).Sub(tm) != 5 {
		t.Fatal("Sub failed")
	}
	if Duration(2.5).Seconds() != 2.5 {
		t.Fatal("Seconds failed")
	}
	if tm.String() == "" {
		t.Fatal("String should not be empty")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds should diverge, got %d collisions", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	f := func(_ uint16) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGUniformMean(t *testing.T) {
	r := NewRNG(7)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Uniform(2, 4)
	}
	mean := sum / float64(n)
	if math.Abs(mean-3) > 0.02 {
		t.Fatalf("uniform(2,4) mean should be ~3, got %f", mean)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(5)
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("exp(5) mean should be ~5, got %f", mean)
	}
	if r.Exp(-1) != 0 {
		t.Fatal("non-positive mean must return 0")
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(13)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean should be ~10, got %f", mean)
	}
	if math.Abs(variance-4) > 0.2 {
		t.Fatalf("normal variance should be ~4, got %f", variance)
	}
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(17)
	if r.Bool(0) {
		t.Fatal("p=0 must be false")
	}
	if !r.Bool(1) {
		t.Fatal("p=1 must be true")
	}
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency should be ~0.25, got %f", frac)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(19)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(23)
	p := r.Perm(20)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
	if len(seen) != 20 {
		t.Fatalf("permutation missing elements: %v", p)
	}
}

func TestWeightsPick(t *testing.T) {
	r := NewRNG(29)
	counts := make([]int, 3)
	w := NewWeights([]float64{1, 2, 1})
	n := 100000
	for i := 0; i < n; i++ {
		counts[w.Pick(r)]++
	}
	frac1 := float64(counts[1]) / float64(n)
	if math.Abs(frac1-0.5) > 0.01 {
		t.Fatalf("weighted choice wrong: middle weight fraction %f", frac1)
	}
	// All-zero weights fall back to uniform.
	idx := NewWeights([]float64{0, 0, 0}).Pick(r)
	if idx < 0 || idx > 2 {
		t.Fatalf("fallback choice out of range: %d", idx)
	}
}

func TestRNGPareto(t *testing.T) {
	r := NewRNG(37)
	for i := 0; i < 1000; i++ {
		v := r.Pareto(1.5, 2)
		if v < 1.5 {
			t.Fatalf("pareto sample below scale: %f", v)
		}
	}
	if r.Pareto(0, 1) != 0 || r.Pareto(1, 0) != 0 {
		t.Fatal("invalid pareto parameters must return 0")
	}
}

func TestRNGFork(t *testing.T) {
	parent := NewRNG(5)
	child := parent.Fork()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked stream should diverge from parent, got %d collisions", same)
	}
}

// TestRNGForkValue pins ForkValue to Fork: the same child stream, and the
// same advance of the parent.
func TestRNGForkValue(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 3; i++ {
		byPtr, byVal := a.Fork(), b.ForkValue()
		if *byPtr != byVal || *a != *b {
			t.Fatalf("fork %d: ForkValue = %v, Fork = %v", i, byVal, *byPtr)
		}
	}
}

func TestRNGShuffle(t *testing.T) {
	r := NewRNG(41)
	vals := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make(map[int]bool)
	for _, v := range vals {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("shuffle lost elements: %v", vals)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	// Events scheduled by events must run in causal order.
	eng := NewEngine(1)
	var trace []string
	eng.ScheduleFunc(1, func(e *Engine) {
		trace = append(trace, "a")
		e.ScheduleFunc(1, func(*Engine) { trace = append(trace, "c") })
	})
	eng.ScheduleFunc(1.5, func(*Engine) { trace = append(trace, "b") })
	eng.RunUntilEmpty()
	want := []string{"a", "b", "c"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("causal order broken: %v", trace)
		}
	}
}

func TestTickerPanicsOnNonPositivePeriod(t *testing.T) {
	eng := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Ticker with period 0 must panic")
		}
	}()
	eng.Ticker(0, func(*Engine) {})
}

func TestScheduleStepAllocationFree(t *testing.T) {
	eng := NewEngine(1)
	noop := func(*Engine) {}
	for i := 0; i < 64; i++ { // grow the heap and the slab once
		eng.ScheduleFunc(Duration(i), noop)
	}
	eng.RunUntilEmpty()
	allocs := testing.AllocsPerRun(1000, func() {
		eng.ScheduleFunc(1, noop)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state ScheduleFunc+Step allocates %.1f times per op, want 0", allocs)
	}
}
