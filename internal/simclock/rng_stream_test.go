package simclock

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeriveSeedDeterministic(t *testing.T) {
	a := DeriveSeed(42, 0)
	b := DeriveSeed(42, 0)
	if a != b {
		t.Fatalf("DeriveSeed is not a pure function: %d vs %d", a, b)
	}
	if DeriveSeed(42, 1) == a {
		t.Fatalf("distinct indices should yield distinct seeds")
	}
	if DeriveSeed(43, 0) == a {
		t.Fatalf("distinct bases should yield distinct seeds")
	}
	if DeriveSeed(42) == DeriveSeed(42, 0) {
		t.Fatalf("adding an index must change the derived seed")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Fatalf("index order must matter")
	}
}

func TestDeriveSeedStreamsAreIndependent(t *testing.T) {
	// Sibling streams derived from neighbouring indices must not produce
	// correlated output; a crude check is that their first outputs differ and
	// no short prefix collides.
	const n = 64
	seen := map[uint64]int{}
	for i := uint64(0); i < n; i++ {
		r := NewStreamRNG(7, i)
		v := r.Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d start with the same output", prev, i)
		}
		seen[v] = int(i)
	}
}

func TestNewStreamRNGMatchesDeriveSeed(t *testing.T) {
	a := NewStreamRNG(99, 3, 1)
	b := NewRNG(DeriveSeed(99, 3, 1))
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("NewStreamRNG must equal NewRNG(DeriveSeed(...)) at step %d", i)
		}
	}
}

// TestDeriveSeedStreamsShareNoOutputsInWindow is the disjointness property
// the sharded region engine rests on: sibling streams derived from the same
// base must not emit a common 64-bit value anywhere in a 10^4-draw window —
// not merely distinct first outputs.  A collision would mean two shards (or
// two sweep replications) partially replay each other's randomness.
func TestDeriveSeedStreamsShareNoOutputsInWindow(t *testing.T) {
	const (
		streams = 8
		window  = 10000
	)
	type origin struct {
		stream uint64
		pos    int
	}
	seen := make(map[uint64]origin, streams*window)
	for i := uint64(0); i < streams; i++ {
		r := NewStreamRNG(12345, i)
		for k := 0; k < window; k++ {
			v := r.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("streams %d (draw %d) and %d (draw %d) share output %#x",
					prev.stream, prev.pos, i, k, v)
			}
			seen[v] = origin{stream: i, pos: k}
		}
	}
}

// TestDeriveSeedOrderIndependent checks that the derivation is a pure
// function of (base, indices): the value of DeriveSeed(base, i) does not
// depend on which other derivations happened before it, and drawing from one
// derived stream never perturbs a sibling — the property that makes parallel
// sweeps and sharded regions schedule-independent.
func TestDeriveSeedOrderIndependent(t *testing.T) {
	// Derivation order: interleave derivations in different orders and
	// compare.
	first := DeriveSeed(7, 4)
	_ = DeriveSeed(7, 9)
	_ = DeriveSeed(1000003, 4)
	if again := DeriveSeed(7, 4); again != first {
		t.Fatalf("DeriveSeed(7, 4) changed across calls: %#x vs %#x", first, again)
	}

	// Consumption order: interleaved draws from two sibling streams must
	// match the draws of fresh streams consumed in isolation.
	const n = 256
	ri, rj := NewStreamRNG(5, 1), NewStreamRNG(5, 2)
	var gotI, gotJ [n]uint64
	for k := 0; k < n; k++ { // alternate, j first, to stress any shared state
		gotJ[k] = rj.Uint64()
		gotI[k] = ri.Uint64()
	}
	fi, fj := NewStreamRNG(5, 1), NewStreamRNG(5, 2)
	for k := 0; k < n; k++ {
		if want := fi.Uint64(); gotI[k] != want {
			t.Fatalf("stream (5,1) draw %d depends on interleaving: %#x vs %#x", k, gotI[k], want)
		}
		if want := fj.Uint64(); gotJ[k] != want {
			t.Fatalf("stream (5,2) draw %d depends on interleaving: %#x vs %#x", k, gotJ[k], want)
		}
	}
}

// TestDeriveSeedDistinctProperty: random (base, i, j) with i != j never
// collide, and the derivation is insensitive to everything but its inputs.
func TestDeriveSeedDistinctProperty(t *testing.T) {
	f := func(base, i, j uint64) bool {
		if i == j {
			return DeriveSeed(base, i) == DeriveSeed(base, j)
		}
		return DeriveSeed(base, i) != DeriveSeed(base, j)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// inverse returns the multiplicative inverse of an odd a modulo 2^64
// (Newton's iteration doubles the correct low bits each step).
func inverse(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}

// TestSkipNormalsMatchesNormals pins SkipNormals(k) to k Normal calls: from
// seeded states and from one whose next output is below 2^11, so that
// Normal's first uniform is 0 and redrawn, SkipNormals(k) leaves the state k
// Normal calls leave, for every k from 0 to 40.
func TestSkipNormalsMatchesNormals(t *testing.T) {
	// Uint64 outputs rotl(s1*5, 7)*9; this s1 makes it x.
	const x = 1234
	s1 := inverse(5) * bits.RotateLeft64(inverse(9)*x, -7)
	redraw := RNG{s: [4]uint64{0x0123456789abcdef, s1, 0xfedcba9876543210, 0x0f1e2d3c4b5a6978}}
	if probe := redraw; probe.Uint64() != x {
		t.Fatalf("built state does not output %d first", x)
	}
	starts := map[string]RNG{"redraw": redraw}
	for _, seed := range []uint64{1, 42, 2016} {
		starts[fmt.Sprintf("seed-%d", seed)] = *NewRNG(seed)
	}
	for name, start := range starts {
		for k := 0; k <= 40; k++ {
			drawn, skipped := start, start
			for i := 0; i < k; i++ {
				drawn.Normal(0, 1)
			}
			skipped.SkipNormals(k)
			if drawn.s != skipped.s {
				t.Fatalf("%s, k=%d: state after Normal %x, after SkipNormals %x", name, k, drawn.s, skipped.s)
			}
		}
	}
	// The redraw is real: one Normal from the built state steps three times.
	once, three := redraw, redraw
	once.Normal(0, 1)
	for i := 0; i < 3; i++ {
		three.Uint64()
	}
	if once.s != three.s {
		t.Fatalf("Normal from the built state did not redraw its zero uniform")
	}
}
