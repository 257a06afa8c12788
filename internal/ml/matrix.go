// Package ml implements the machine-learning toolchain used by the F2PM
// framework: the regression models the paper lists (Linear Regression, M5P,
// REP-Tree, Lasso, SVM, Least-Squares SVM), the evaluation metrics used to
// pick among them, k-fold cross validation, and Lasso-based feature
// selection.  Everything is built on the standard library only.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system cannot be solved because its
// matrix is (numerically) singular.
var ErrSingular = errors.New("ml: singular matrix")

// ErrEmptyDataset is returned when a model is asked to train on no samples.
var ErrEmptyDataset = errors.New("ml: empty dataset")

// ErrDimensionMismatch is returned when matrix/vector dimensions disagree.
var ErrDimensionMismatch = errors.New("ml: dimension mismatch")

// Dot returns the inner product of a and b.  It panics on length mismatch,
// which always indicates a programming error.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ml: dot product length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// MatVec returns A·x.
func MatVec(a [][]float64, x []float64) []float64 {
	out := make([]float64, len(a))
	for i, row := range a {
		out[i] = Dot(row, x)
	}
	return out
}

// Transpose returns the transpose of a (rows become columns).
func Transpose(a [][]float64) [][]float64 {
	if len(a) == 0 {
		return nil
	}
	rows, cols := len(a), len(a[0])
	out := make([][]float64, cols)
	for j := 0; j < cols; j++ {
		out[j] = make([]float64, rows)
		for i := 0; i < rows; i++ {
			out[j][i] = a[i][j]
		}
	}
	return out
}

// MatMul returns A·B.
func MatMul(a, b [][]float64) ([][]float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return nil, ErrDimensionMismatch
	}
	n, k, m := len(a), len(a[0]), len(b[0])
	if len(b) != k {
		return nil, ErrDimensionMismatch
	}
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = make([]float64, m)
		for t := 0; t < k; t++ {
			aval := a[i][t]
			if aval == 0 {
				continue
			}
			brow := b[t]
			for j := 0; j < m; j++ {
				out[i][j] += aval * brow[j]
			}
		}
	}
	return out, nil
}

// SolveLinearSystem solves A·x = b in place using Gaussian elimination with
// partial pivoting.  A and b are copied, not modified.
func SolveLinearSystem(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, ErrDimensionMismatch
	}
	// Augmented copy.
	m := make([][]float64, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, ErrDimensionMismatch
		}
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivoting.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			factor := m[r][col] / m[col][col]
			if factor == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= factor * m[col][c]
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}

// NormalEquations solves the least-squares problem min ||X·w - y||² (with an
// optional ridge penalty lambda>=0 on all weights except the intercept, which
// the caller encodes as the first column of ones) via the normal equations
// (XᵀX + λI)·w = Xᵀy.
func NormalEquations(x [][]float64, y []float64, lambda float64, interceptCol int) ([]float64, error) {
	if len(x) == 0 {
		return nil, ErrEmptyDataset
	}
	if len(x) != len(y) {
		return nil, ErrDimensionMismatch
	}
	xt := Transpose(x)
	xtx, err := MatMul(xt, x)
	if err != nil {
		return nil, err
	}
	if lambda > 0 {
		for i := range xtx {
			if i == interceptCol {
				continue
			}
			xtx[i][i] += lambda
		}
	}
	xty := MatVec(xt, y)
	w, err := SolveLinearSystem(xtx, xty)
	if err != nil && errors.Is(err, ErrSingular) && lambda == 0 {
		// Retry with a tiny ridge to regularise collinear designs.
		return NormalEquations(x, y, 1e-8, interceptCol)
	}
	return w, err
}

// Standardizer rescales features to zero mean and unit variance, remembering
// the statistics so the same transform can be applied at prediction time.
// Constant columns are left untouched (scale 1) to avoid division by zero.
type Standardizer struct {
	Mean  []float64
	Scale []float64
}

// FitStandardizer computes column means and standard deviations of x.
func FitStandardizer(x [][]float64) *Standardizer {
	if len(x) == 0 {
		return &Standardizer{}
	}
	cols := len(x[0])
	s := &Standardizer{Mean: make([]float64, cols), Scale: make([]float64, cols)}
	n := float64(len(x))
	for j := 0; j < cols; j++ {
		sum := 0.0
		for i := range x {
			sum += x[i][j]
		}
		s.Mean[j] = sum / n
	}
	for j := 0; j < cols; j++ {
		sq := 0.0
		for i := range x {
			d := x[i][j] - s.Mean[j]
			sq += d * d
		}
		sd := math.Sqrt(sq / n)
		if sd < 1e-12 {
			sd = 1
		}
		s.Scale[j] = sd
	}
	return s
}

// Transform returns a standardised copy of x.
func (s *Standardizer) Transform(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.TransformRow(row)
	}
	return out
}

// TransformRow returns a standardised copy of a single row.
func (s *Standardizer) TransformRow(row []float64) []float64 {
	out := make([]float64, len(row))
	for j, v := range row {
		if j < len(s.Mean) {
			out[j] = (v - s.Mean[j]) / s.Scale[j]
		} else {
			out[j] = v
		}
	}
	return out
}

// addIntercept prefixes each row with a 1 so linear models can learn a bias
// term through the same weight vector.
func addIntercept(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		r := make([]float64, len(row)+1)
		r[0] = 1
		copy(r[1:], row)
		out[i] = r
	}
	return out
}

// meanOf returns the arithmetic mean of xs (0 when empty).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// varianceOf returns the population variance of xs.
func varianceOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := meanOf(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}
