package simclock

import (
	"math"
	"strings"
	"testing"
)

// queueModel drives an Engine and a reference model of its queue side by
// side.  Every event carries its schedule sequence number; the model keeps
// the events still due to fire (live) and the cancelled ones still in the
// heap (dead), and each Step must fire exactly the live event that a sort by
// (at, seq) puts first.  With followUps set, handlers schedule 0, 1 or 3
// follow-ups themselves, some with a zero delay that ties with the firing
// time, and cancel their own handle or another one from inside Fire.
type queueModel struct {
	tb        testing.TB
	eng       *Engine
	draw      func(n int) int // the next choice in [0, n)
	followUps bool
	budget    int // follow-ups handlers may still schedule

	at      []Time   // by seq
	handles []Handle // by seq
	live    map[int]bool
	dead    map[int]bool
	firing  int // seq the reference expects to fire next, -1 between steps
	fired   int
}

func newQueueModel(tb testing.TB, draw func(n int) int, followUps bool, budget int) *queueModel {
	return &queueModel{
		tb: tb, eng: NewEngine(1), draw: draw, followUps: followUps, budget: budget,
		live: map[int]bool{}, dead: map[int]bool{}, firing: -1,
	}
}

// before reports whether event s sorts before event r in (at, seq) order.
func (m *queueModel) before(s, r int) bool {
	return m.at[s] < m.at[r] || (m.at[s] == m.at[r] && s < r)
}

// schedule enqueues one event d after Now.
func (m *queueModel) schedule(d Duration) {
	seq := len(m.at)
	at := m.eng.Now().Add(d)
	m.at = append(m.at, at)
	m.live[seq] = true
	m.handles = append(m.handles, m.eng.ScheduleAt(at, EventFunc(func(*Engine) { m.fire(seq) })))
	m.checkPending()
}

// cancel cancels the event with sequence number seq; cancelling one that has
// fired or was drained changes nothing.
func (m *queueModel) cancel(seq int) {
	m.handles[seq].Cancel()
	if m.live[seq] {
		delete(m.live, seq)
		m.dead[seq] = true
	}
}

// checkPending compares Pending with the model: the live and cancelled
// events in the heap, never the one that is firing.
func (m *queueModel) checkPending() {
	m.tb.Helper()
	if got, want := m.eng.Pending(), len(m.live)+len(m.dead); got != want {
		m.tb.Fatalf("Pending() = %d, model %d", got, want)
	}
}

// step fires the next event on the engine and in the model.
func (m *queueModel) step() {
	m.tb.Helper()
	best := -1
	for s := range m.live {
		if best < 0 || m.before(s, best) {
			best = s
		}
	}
	// Step discards the cancelled entries that surface ahead of best.
	for s := range m.dead {
		if best < 0 || m.before(s, best) {
			delete(m.dead, s)
		}
	}
	delete(m.live, best)
	m.firing = best
	fired := m.fired
	if got := m.eng.Step(); got != (best >= 0) {
		m.tb.Fatalf("Step() = %v with %d live events in the model", got, len(m.live))
	}
	if best >= 0 && m.fired != fired+1 {
		m.tb.Fatalf("Step fired %d handlers, want 1", m.fired-fired)
	}
	m.firing = -1
	m.checkPending()
}

// fire is the handler of event seq.
func (m *queueModel) fire(seq int) {
	m.tb.Helper()
	m.fired++
	if seq != m.firing {
		m.tb.Fatalf("event %d (at %v) fired, reference expects %d", seq, m.at[seq], m.firing)
	}
	if m.eng.Now() != m.at[seq] {
		m.tb.Fatalf("event %d fired at %v, scheduled for %v", seq, m.eng.Now(), m.at[seq])
	}
	if !m.handles[seq].Cancelled() {
		m.tb.Fatalf("the handle of firing event %d does not report Cancelled", seq)
	}
	m.checkPending()
	if !m.followUps {
		return
	}
	// Cancel before or after scheduling: after, the first follow-up has
	// reused this event's slot and its stale handle must not reach it.
	cancelFirst := m.draw(2) == 0
	if cancelFirst {
		m.cancelFromHandler(seq)
	}
	for n := [...]int{0, 1, 3}[m.draw(3)]; n > 0 && m.budget > 0; n-- {
		m.budget--
		m.schedule(Duration(m.draw(3))) // a zero delay ties with the firing time
	}
	if !cancelFirst {
		m.cancelFromHandler(seq)
	}
	m.checkPending()
}

// cancelFromHandler cancels the firing event's own handle, another event's
// or nothing.
func (m *queueModel) cancelFromHandler(seq int) {
	switch m.draw(3) {
	case 0:
		m.cancel(seq)
	case 1:
		m.cancel(m.draw(len(m.handles)))
	}
}

// run interleaves ops schedules from outside a handler (on coarse times, to
// force ties), cancellations of pending and already-fired handles, and
// steps, then drains the queue.
func (m *queueModel) run(ops int) {
	for op := 0; op < ops; op++ {
		switch k := m.draw(10); {
		case k < 5:
			m.schedule(Duration(m.draw(8)))
		case k < 7 && len(m.handles) > 0:
			m.cancel(m.draw(len(m.handles)))
			m.checkPending()
		default:
			m.step()
		}
	}
	for len(m.live) > 0 {
		m.step()
	}
	if m.eng.Step() {
		m.tb.Fatal("an event fired after the reference drained")
	}
	if m.eng.Pending() != 0 {
		m.tb.Fatalf("%d entries left in a drained queue", m.eng.Pending())
	}
}

// TestQueueMatchesReferenceSort drives random interleavings of schedules
// (many sharing a timestamp), cancellations of pending and already-fired
// handles, and steps, and checks the events fire in exactly the (at, seq)
// order a reference sort of the live set gives.  In the second half of the
// seeds the handlers schedule follow-ups and cancel handles themselves, so
// the firing root is replaced in place as well as popped.
func TestQueueMatchesReferenceSort(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		rng := NewRNG(seed)
		newQueueModel(t, rng.Intn, seed > 50, 2000).run(400)
	}
}

// FuzzEngineQueue runs the reference model on a byte-encoded sequence of
// operations: each byte is one choice of the model (schedule, cancel or
// step, a delay, a handle, a handler's follow-up count and cancellation),
// and the first byte's low bit turns handler follow-ups on.
func FuzzEngineQueue(f *testing.F) {
	f.Add([]byte{1, 0, 3, 0, 0, 7, 9, 9, 9})
	f.Add([]byte{1, 2, 0, 2, 0, 2, 0, 9, 1, 2, 1, 9, 0, 2, 5, 6, 9, 9})
	f.Add([]byte{0, 4, 1, 4, 1, 4, 2, 5, 0, 6, 1, 9, 9, 9, 9})
	f.Add([]byte{1, 3, 0, 8, 2, 1, 0, 9, 2, 1, 0, 1, 9, 1, 1, 2, 2, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 1024 {
			data = data[:1024] // longer sequences add run time, not coverage
		}
		followUps := data[0]&1 == 1
		data = data[1:]
		ops := len(data) / 2
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		newQueueModel(t, draw, followUps, 256).run(ops)
	})
}

// mustPanic runs fn and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

func TestScheduleAtRejectsNaN(t *testing.T) {
	eng := NewEngine(1)
	var got []Time
	record := EventFunc(func(e *Engine) { got = append(got, e.Now()) })
	for _, at := range []float64{3, 1, math.NaN(), 2, 0.5, 4, 1.5} {
		if math.IsNaN(at) {
			mustPanic(t, "NaN", func() { eng.ScheduleAt(Time(at), record) })
			continue
		}
		eng.ScheduleAt(Time(at), record)
	}
	mustPanic(t, "NaN", func() { eng.Schedule(Duration(math.NaN()), record) })
	eng.RunUntilEmpty()
	want := []Time{0.5, 1, 1.5, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
}

// TestQueueBitKeyOrder pins the edges of the bit-pattern key: -0 is
// scheduled as +0 (its sign bit would otherwise sort it after every finite
// time), +Inf sorts after every finite time, and a negative time never
// reaches the queue.
func TestQueueBitKeyOrder(t *testing.T) {
	eng := NewEngine(1)
	var got []int
	var negZeroNow Time
	at := []Time{Time(math.Inf(1)), Time(math.Copysign(0, -1)), 1, 0, 0.5, 1e300}
	for i, a := range at {
		eng.ScheduleAt(a, EventFunc(func(e *Engine) {
			got = append(got, i)
			if i == 1 {
				negZeroNow = e.Now()
			}
		}))
	}
	eng.RunUntilEmpty()
	want := []int{1, 3, 4, 2, 5, 0}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if math.Signbit(float64(negZeroNow)) {
		t.Fatal("an event scheduled at -0 fired at -0, want +0")
	}
	// A negative horizon leaves the clock at zero, so a negative time
	// clamps to +0 like any time in the past.
	neg := NewEngine(1)
	neg.ScheduleAt(1, EventFunc(func(*Engine) {}))
	_ = neg.Run(-2)
	neg.ScheduleAt(-1, EventFunc(func(*Engine) {}))
	if pt := neg.PendingTimes(); len(pt) != 2 || pt[0] != 0 || math.Signbit(float64(pt[0])) || pt[1] != 1 {
		t.Fatalf("pending after a schedule at -1 = %v, want [0 1]", pt)
	}
}

// TestQueueCapacityGuards sets the sequence counter next to its 2^40 limit
// and lowers the slab limit, rather than scheduling 2^40 events or filling
// 2^24 slots, and checks that the engine panics with a named message at the
// limit and keeps its order up to it.
func TestQueueCapacityGuards(t *testing.T) {
	eng := NewEngine(1)
	eng.seq = maxSeq - 3
	var got []int
	for i := 0; i < 3; i++ {
		eng.ScheduleAt(1, EventFunc(func(*Engine) { got = append(got, i) }))
	}
	mustPanic(t, "2^40", func() { eng.ScheduleAt(1, EventFunc(func(*Engine) {})) })
	eng.RunUntilEmpty()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("same-time events next to the sequence limit fired %v, want [0 1 2]", got)
	}

	defer func(old int) { maxSlots = old }(maxSlots)
	maxSlots = 4
	eng = NewEngine(1)
	noop := EventFunc(func(*Engine) {})
	for i := 0; i < 4; i++ {
		eng.Schedule(Duration(i), noop)
	}
	mustPanic(t, "2^24", func() { eng.Schedule(5, noop) })
	eng.Step()
	eng.Schedule(5, noop) // reuses the freed slot
	if eng.Pending() != 4 {
		t.Fatalf("Pending() = %d, want 4", eng.Pending())
	}
}

// TestNestedStepFiresInOrder steps the engine from inside a handler: the
// firing event's held root must be gone before the nested step reads the
// queue, and the outer event's later follow-ups must still sort correctly.
func TestNestedStepFiresInOrder(t *testing.T) {
	eng := NewEngine(1)
	var got []string
	eng.ScheduleFunc(1, func(e *Engine) {
		got = append(got, "a")
		e.Step()
		e.ScheduleFunc(0.5, func(*Engine) { got = append(got, "d") })
	})
	eng.ScheduleFunc(2, func(*Engine) { got = append(got, "b") })
	eng.ScheduleFunc(3, func(*Engine) { got = append(got, "e") })
	eng.ScheduleFunc(2.25, func(*Engine) { got = append(got, "c") })
	eng.RunUntilEmpty()
	if s := strings.Join(got, ""); s != "abcde" {
		t.Fatalf("fired %q, want %q", s, "abcde")
	}
}
