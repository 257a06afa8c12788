package ml

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot product wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestMatVecTransposeMatMul(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	x := []float64{1, 1}
	v := MatVec(a, x)
	if v[0] != 3 || v[1] != 7 {
		t.Fatalf("matvec wrong: %v", v)
	}
	at := Transpose(a)
	if at[0][1] != 3 || at[1][0] != 2 {
		t.Fatalf("transpose wrong: %v", at)
	}
	if Transpose(nil) != nil {
		t.Fatal("transpose of empty should be nil")
	}
	prod, err := MatMul(a, at)
	if err != nil {
		t.Fatal(err)
	}
	// [[1,2],[3,4]] * [[1,3],[2,4]] = [[5,11],[11,25]]
	if prod[0][0] != 5 || prod[0][1] != 11 || prod[1][0] != 11 || prod[1][1] != 25 {
		t.Fatalf("matmul wrong: %v", prod)
	}
	if _, err := MatMul(a, [][]float64{{1, 2}}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
	if _, err := MatMul(nil, a); err == nil {
		t.Fatal("empty matrix should error")
	}
}

func TestSolveLinearSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{3, 5}
	x, err := SolveLinearSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Solution: x=0.8, y=1.4
	if !almostEqual(x[0], 0.8, 1e-9) || !almostEqual(x[1], 1.4, 1e-9) {
		t.Fatalf("solution wrong: %v", x)
	}
	// Singular matrix
	if _, err := SolveLinearSystem([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	// Dimension mismatches
	if _, err := SolveLinearSystem(nil, nil); err == nil {
		t.Fatal("empty system should error")
	}
	if _, err := SolveLinearSystem([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched b should error")
	}
	if _, err := SolveLinearSystem([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("non-square should error")
	}
}

// Property: for random diagonally dominant systems, SolveLinearSystem returns
// x with A·x ≈ b.
func TestSolveLinearSystemProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 4
		s := uint64(seed)
		next := func() float64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return float64(s%2000)/1000 - 1
		}
		a := make([][]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				a[i][j] = next()
			}
			a[i][i] += 5 // diagonal dominance => non-singular
			b[i] = next()
		}
		x, err := SolveLinearSystem(a, b)
		if err != nil {
			return false
		}
		ax := MatVec(a, x)
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalEquations(t *testing.T) {
	// y = 2 + 3x fits exactly.
	x := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{2, 5, 8, 11}
	w, err := NormalEquations(x, y, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(w[0], 2, 1e-6) || !almostEqual(w[1], 3, 1e-6) {
		t.Fatalf("weights wrong: %v", w)
	}
	if _, err := NormalEquations(nil, nil, 0, 0); !errors.Is(err, ErrEmptyDataset) {
		t.Fatal("empty design should error")
	}
	if _, err := NormalEquations(x, []float64{1}, 0, 0); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatal("length mismatch should error")
	}
	// Collinear design with lambda=0 should auto-regularise instead of failing.
	xc := [][]float64{{1, 1, 2}, {1, 2, 4}, {1, 3, 6}, {1, 4, 8}}
	yc := []float64{1, 2, 3, 4}
	if _, err := NormalEquations(xc, yc, 0, 0); err != nil {
		t.Fatalf("collinear design should fall back to ridge: %v", err)
	}
}

func TestStandardizer(t *testing.T) {
	x := [][]float64{{1, 10, 5}, {2, 20, 5}, {3, 30, 5}}
	s := FitStandardizer(x)
	xt := s.Transform(x)
	// Column 0: mean 2 -> standardised mean 0
	sum := xt[0][0] + xt[1][0] + xt[2][0]
	if !almostEqual(sum, 0, 1e-9) {
		t.Fatalf("standardised column mean should be 0, got %f", sum/3)
	}
	// Constant column 2 must not blow up.
	if xt[0][2] != 0 || s.Scale[2] != 1 {
		t.Fatalf("constant column should transform to 0 with scale 1, got %v", xt[0][2])
	}
	// Row longer than fitted columns keeps the extra values.
	row := s.TransformRow([]float64{1, 10, 5, 99})
	if row[3] != 99 {
		t.Fatal("extra column should pass through")
	}
	empty := FitStandardizer(nil)
	if len(empty.Mean) != 0 {
		t.Fatal("empty standardizer should have no stats")
	}
}

func TestAddInterceptAndCopyMatrix(t *testing.T) {
	x := [][]float64{{2, 3}}
	xi := addIntercept(x)
	if xi[0][0] != 1 || xi[0][1] != 2 || xi[0][2] != 3 {
		t.Fatalf("intercept column wrong: %v", xi)
	}
}

func TestMeanVarianceHelpers(t *testing.T) {
	if meanOf(nil) != 0 || varianceOf(nil) != 0 || varianceOf([]float64{1}) != 0 {
		t.Fatal("degenerate helpers should return 0")
	}
	if meanOf([]float64{2, 4}) != 3 {
		t.Fatal("meanOf wrong")
	}
	if varianceOf([]float64{2, 4}) != 1 {
		t.Fatal("varianceOf wrong")
	}
}
