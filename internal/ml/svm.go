package ml

import (
	"fmt"
	"math"
)

// SVR is a linear support-vector regression model trained with stochastic
// sub-gradient descent on the epsilon-insensitive loss with L2
// regularisation.  It stands in for the "SVM" entry in F2PM's model list.
type SVR struct {
	// C is the inverse regularisation strength (larger C fits the data more
	// tightly).  Defaults to 1.
	C float64
	// Epsilon is the insensitivity tube half-width, expressed in label units
	// after standardisation.  Defaults to 0.1.
	Epsilon float64
	// Epochs is the number of passes over the training data.  Defaults to 200.
	Epochs int

	weights   []float64
	bias      float64
	scaler    *Standardizer
	yMean     float64
	yScale    float64
	fitted    bool
	seedState uint64
}

// NewSVR returns a linear SVR with default hyper-parameters.
func NewSVR() *SVR { return &SVR{C: 1, Epsilon: 0.1, Epochs: 200, seedState: 0x9e3779b97f4a7c15} }

// Name implements Regressor.
func (m *SVR) Name() string { return "SVR" }

// nextRand is a tiny deterministic xorshift used only to permute sample order
// between epochs; keeping it internal avoids importing math/rand and keeps
// training byte-for-byte reproducible.
func (m *SVR) nextRand() uint64 {
	x := m.seedState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.seedState = x
	return x
}

// Fit implements Regressor.
func (m *SVR) Fit(x [][]float64, y []float64) error {
	n := len(x)
	if n == 0 {
		return ErrEmptyDataset
	}
	if len(y) != n {
		return ErrDimensionMismatch
	}
	p := len(x[0])
	c := m.C
	if c <= 0 {
		c = 1
	}
	eps := m.Epsilon
	if eps < 0 {
		eps = 0.1
	}
	epochs := m.Epochs
	if epochs <= 0 {
		epochs = 200
	}

	m.scaler = FitStandardizer(x)
	xs := m.scaler.Transform(x)

	// Standardise the target too so the learning rate and epsilon are scale
	// free; predictions transform back.
	m.yMean = meanOf(y)
	sd := math.Sqrt(varianceOf(y))
	if sd < 1e-12 {
		sd = 1
	}
	m.yScale = sd
	ys := make([]float64, n)
	for i := range y {
		ys[i] = (y[i] - m.yMean) / m.yScale
	}

	w := make([]float64, p)
	b := 0.0
	lambda := 1 / (c * float64(n))

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	step := 0
	for epoch := 0; epoch < epochs; epoch++ {
		// Fisher–Yates shuffle with the deterministic generator.
		for i := n - 1; i > 0; i-- {
			j := int(m.nextRand() % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		for _, i := range order {
			step++
			eta := 1 / (lambda * float64(step+1000))
			pred := Dot(w, xs[i]) + b
			err := pred - ys[i]
			// Sub-gradient of the epsilon-insensitive loss.
			var g float64
			switch {
			case err > eps:
				g = 1
			case err < -eps:
				g = -1
			default:
				g = 0
			}
			for j := 0; j < p; j++ {
				w[j] -= eta * (lambda*w[j] + g*xs[i][j])
			}
			b -= eta * g
		}
	}

	m.weights = w
	m.bias = b
	m.fitted = true
	return nil
}

// Predict implements Regressor.
func (m *SVR) Predict(row []float64) float64 {
	if !m.fitted {
		return 0
	}
	r := m.scaler.TransformRow(row)
	if len(r) > len(m.weights) {
		r = r[:len(m.weights)]
	}
	pred := m.bias
	for j := 0; j < len(r); j++ {
		pred += m.weights[j] * r[j]
	}
	return pred*m.yScale + m.yMean
}

// LSSVM is a least-squares support-vector machine for regression with an RBF
// kernel.  Training solves the dual linear system
//
//	[ K + I/gamma ] alpha = y - b·1
//
// following Suykens & Vandewalle.  To keep the O(n³) solve tractable on large
// feature databases the training set is subsampled down to MaxSamples support
// vectors (evenly spaced, preserving the degradation trajectory).
type LSSVM struct {
	// Gamma is the regularisation parameter (larger fits more tightly).
	Gamma float64
	// Sigma is the RBF kernel bandwidth in standardised feature space.  Zero
	// (the default) selects sqrt(#features), the classic heuristic that keeps
	// typical pairwise distances inside the kernel's sensitive range
	// regardless of the dimensionality.
	Sigma float64
	// MaxSamples caps the number of support vectors (defaults to 400).
	MaxSamples int

	support  [][]float64
	alpha    []float64
	bias     float64
	scaler   *Standardizer
	sigmaFit float64 // bandwidth resolved at fit time
	fitted   bool
}

// NewLSSVM returns an LS-SVM with default hyper-parameters.
func NewLSSVM() *LSSVM { return &LSSVM{Gamma: 50, MaxSamples: 400} }

// Name implements Regressor.
func (m *LSSVM) Name() string { return "LS-SVM" }

// Fit implements Regressor.
func (m *LSSVM) Fit(x [][]float64, y []float64) error {
	n := len(x)
	if n == 0 {
		return ErrEmptyDataset
	}
	if len(y) != n {
		return ErrDimensionMismatch
	}
	gamma := m.Gamma
	if gamma <= 0 {
		gamma = 50
	}
	sigma := m.Sigma
	if sigma <= 0 {
		sigma = math.Sqrt(float64(len(x[0])))
		if sigma <= 0 {
			sigma = 1
		}
	}
	m.sigmaFit = sigma
	maxSamples := m.MaxSamples
	if maxSamples <= 0 {
		maxSamples = 400
	}

	m.scaler = FitStandardizer(x)
	xs := m.scaler.Transform(x)

	// Evenly subsample to keep the kernel solve tractable.
	var sx [][]float64
	var sy []float64
	if n > maxSamples {
		stride := float64(n) / float64(maxSamples)
		for k := 0; k < maxSamples; k++ {
			i := int(float64(k) * stride)
			sx = append(sx, xs[i])
			sy = append(sy, y[i])
		}
	} else {
		sx, sy = xs, y
	}
	ns := len(sx)

	// Build the LS-SVM system including the bias via the standard bordered
	// formulation:
	//   [ 0      1ᵀ        ] [b]     [0]
	//   [ 1   K + I/gamma  ] [alpha] [y]
	dim := ns + 1
	a := make([][]float64, dim)
	for i := range a {
		a[i] = make([]float64, dim)
	}
	b := make([]float64, dim)
	for i := 0; i < ns; i++ {
		a[0][i+1] = 1
		a[i+1][0] = 1
		b[i+1] = sy[i]
		for j := 0; j < ns; j++ {
			a[i+1][j+1] = rbfKernel(sx[i], sx[j], sigma)
		}
		a[i+1][i+1] += 1 / gamma
	}
	sol, err := SolveLinearSystem(a, b)
	if err != nil {
		return fmt.Errorf("ml: LS-SVM solve: %w", err)
	}
	m.bias = sol[0]
	m.alpha = sol[1:]
	m.support = sx
	m.fitted = true
	return nil
}

// rbfKernel computes exp(-||a-b||² / (2 sigma²)).
func rbfKernel(a, b []float64, sigma float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Exp(-s / (2 * sigma * sigma))
}

// Predict implements Regressor.
func (m *LSSVM) Predict(row []float64) float64 {
	if !m.fitted {
		return 0
	}
	r := m.scaler.TransformRow(row)
	pred := m.bias
	for i, sv := range m.support {
		pred += m.alpha[i] * rbfKernel(sv, r, m.sigmaFit)
	}
	return pred
}
