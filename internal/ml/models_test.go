package ml

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// synthRegression builds a synthetic dataset y = 5 + 2*x0 - 3*x1 + noise with
// an irrelevant third feature, resembling a degradation trajectory.
func synthRegression(n int, noise float64) (x [][]float64, y []float64) {
	s := uint64(12345)
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%10000) / 10000
	}
	for i := 0; i < n; i++ {
		x0 := next() * 10
		x1 := next() * 5
		x2 := next() // irrelevant
		eps := (next() - 0.5) * 2 * noise
		x = append(x, []float64{x0, x1, x2})
		y = append(y, 5+2*x0-3*x1+eps)
	}
	return x, y
}

// synthDegradation mimics an RTTF dataset: memory grows roughly linearly over
// time and RTTF decreases accordingly, with noise.
func synthDegradation(n int) (x [][]float64, y []float64) {
	s := uint64(777)
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%10000) / 10000
	}
	horizon := 3600.0
	for i := 0; i < n; i++ {
		t := horizon * float64(i) / float64(n)
		mem := 200 + 0.5*t + next()*20
		threads := 50 + 0.02*t + next()*3
		cpu := 0.3 + next()*0.2
		rttf := horizon - t + (next()-0.5)*60
		x = append(x, []float64{mem, threads, cpu})
		y = append(y, rttf)
	}
	return x, y
}

func TestLinearRegressionExactFit(t *testing.T) {
	x, y := synthRegression(200, 0)
	m := NewLinearRegression()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.Weights[0], 5, 1e-6) || !almostEqual(m.Weights[1], 2, 1e-6) || !almostEqual(m.Weights[2], -3, 1e-6) {
		t.Fatalf("weights wrong: %v", m.Weights)
	}
	if !almostEqual(m.Weights[3], 0, 1e-6) {
		t.Fatalf("irrelevant feature should get ~0 weight: %v", m.Weights)
	}
	pred := m.Predict([]float64{1, 1, 0})
	if !almostEqual(pred, 4, 1e-6) {
		t.Fatalf("prediction wrong: %f", pred)
	}
	if m.Name() != "LinearRegression" {
		t.Fatal("name wrong")
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	m := NewLinearRegression()
	if err := m.Fit(nil, nil); !errors.Is(err, ErrEmptyDataset) {
		t.Fatal("empty fit should error")
	}
	if err := m.Fit([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatal("mismatch fit should error")
	}
	if m.Predict([]float64{1}) != 0 {
		t.Fatal("unfitted model should predict 0")
	}
}

func TestRidgeRegression(t *testing.T) {
	x, y := synthRegression(300, 0.5)
	m := NewRidgeRegression(1.0)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	met := EvaluateModel(m, x, y)
	if met.R2 < 0.95 {
		t.Fatalf("ridge should fit the synthetic data well, R2=%f", met.R2)
	}
	if NewRidgeRegression(-5).Lambda != 0 {
		t.Fatal("negative lambda should clamp to 0")
	}
	if m.Name() == "" {
		t.Fatal("name empty")
	}
	unfitted := NewRidgeRegression(1)
	if unfitted.Predict([]float64{1, 2, 3}) != 0 {
		t.Fatal("unfitted ridge should predict 0")
	}
	if err := unfitted.Fit(nil, nil); err == nil {
		t.Fatal("empty fit should error")
	}
	if err := unfitted.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched fit should error")
	}
}

func TestLassoShrinksIrrelevantFeature(t *testing.T) {
	x, y := synthRegression(400, 0.2)
	m := NewLasso(0.05)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	met := EvaluateModel(m, x, y)
	if met.R2 < 0.95 {
		t.Fatalf("lasso should fit well, R2=%f", met.R2)
	}
	sel := m.SelectedFeatures(1e-6)
	for _, j := range sel {
		if j == 2 {
			// The irrelevant feature may survive a tiny penalty but its weight
			// must be far smaller than the real ones.
			if math.Abs(m.Coefficients[2]) > 0.2*math.Abs(m.Coefficients[0]) {
				t.Fatalf("irrelevant feature weight too large: %v", m.Coefficients)
			}
		}
	}
	if len(sel) < 2 {
		t.Fatalf("lasso should keep the two informative features, got %v", sel)
	}
}

// Property (from DESIGN.md): Lasso with lambda=0 behaves like OLS.
func TestLassoZeroPenaltyMatchesOLS(t *testing.T) {
	x, y := synthRegression(200, 0.3)
	lasso := NewLasso(0)
	ols := NewLinearRegression()
	if err := lasso.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := ols.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		row := x[i*7%len(x)]
		if !almostEqual(lasso.Predict(row), ols.Predict(row), 0.05) {
			t.Fatalf("lasso(0) and OLS disagree: %f vs %f", lasso.Predict(row), ols.Predict(row))
		}
	}
}

func TestLassoErrors(t *testing.T) {
	m := NewLasso(0.1)
	if err := m.Fit(nil, nil); !errors.Is(err, ErrEmptyDataset) {
		t.Fatal("empty fit should error")
	}
	if err := m.Fit([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatal("mismatch fit should error")
	}
	if m.Predict([]float64{1}) != 0 {
		t.Fatal("unfitted lasso should predict 0")
	}
	if NewLasso(-1).Lambda != 0 {
		t.Fatal("negative lambda should clamp")
	}
}

func TestREPTreeFitsDegradation(t *testing.T) {
	x, y := synthDegradation(1000)
	m := NewREPTree()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	met := EvaluateModel(m, x, y)
	if met.R2 < 0.9 {
		t.Fatalf("REPTree should capture the degradation trend, R2=%f", met.R2)
	}
	if m.Depth() < 1 {
		t.Fatalf("tree should have split at least once, depth=%d", m.Depth())
	}
	if m.Leaves() < 2 {
		t.Fatalf("tree should have at least 2 leaves, got %d", m.Leaves())
	}
	if m.String() == "" || m.Name() != "REPTree" {
		t.Fatal("string/name wrong")
	}
}

// Property: tree predictions always lie within the training label range.
func TestREPTreePredictionBoundedProperty(t *testing.T) {
	x, y := synthDegradation(600)
	m := NewREPTree()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range y {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	f := func(a, b, c float64) bool {
		row := []float64{math.Abs(math.Mod(a, 2500)), math.Abs(math.Mod(b, 200)), math.Abs(math.Mod(c, 1))}
		p := m.Predict(row)
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestREPTreePruningReducesLeaves(t *testing.T) {
	x, y := synthDegradation(800)
	pruned := &REPTree{MaxDepth: 14, MinLeaf: 3, PruneFraction: 0.3}
	unpruned := &REPTree{MaxDepth: 14, MinLeaf: 3, PruneFraction: 0}
	if err := pruned.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := unpruned.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if pruned.Leaves() > unpruned.Leaves() {
		t.Fatalf("pruning should not increase leaves: pruned=%d unpruned=%d", pruned.Leaves(), unpruned.Leaves())
	}
}

func TestREPTreeErrorsAndDegenerateData(t *testing.T) {
	m := NewREPTree()
	if err := m.Fit(nil, nil); !errors.Is(err, ErrEmptyDataset) {
		t.Fatal("empty fit should error")
	}
	if err := m.Fit([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatal("mismatch should error")
	}
	if m.Predict([]float64{1}) != 0 || m.Depth() != -1 || m.Leaves() != 0 {
		t.Fatal("unfitted tree defaults wrong")
	}
	if m.String() != "REPTree(unfitted)" {
		t.Fatal("unfitted string wrong")
	}
	// Constant target: tree stays a single leaf predicting the constant.
	x := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}}
	y := []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{100}) != 7 {
		t.Fatal("constant-target tree should predict the constant")
	}
}

func TestM5PFitsPiecewiseLinear(t *testing.T) {
	// Piecewise linear function: below 50 slope 1, above 50 slope -2.
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		v := float64(i) / 4
		x = append(x, []float64{v, 1})
		if v <= 50 {
			y = append(y, v)
		} else {
			y = append(y, 50-2*(v-50))
		}
	}
	m := NewM5P()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	met := EvaluateModel(m, x, y)
	if met.R2 < 0.97 {
		t.Fatalf("M5P should fit a piecewise-linear function closely, R2=%f", met.R2)
	}
	if m.Leaves() < 2 {
		t.Fatalf("M5P should split, got %d leaves", m.Leaves())
	}
	if m.Name() != "M5P" {
		t.Fatal("name wrong")
	}
}

func TestM5PBeatsREPTreeOnLinearData(t *testing.T) {
	// On globally linear data the leaf regressions extrapolate better than
	// piecewise constants.
	x, y := synthRegression(500, 0.1)
	m5 := NewM5P()
	rep := NewREPTree()
	if err := m5.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := rep.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	m5Met := EvaluateModel(m5, x, y)
	repMet := EvaluateModel(rep, x, y)
	if m5Met.RMSE > repMet.RMSE*1.2 {
		t.Fatalf("M5P should be competitive on linear data: m5=%f rep=%f", m5Met.RMSE, repMet.RMSE)
	}
}

func TestM5PErrors(t *testing.T) {
	m := NewM5P()
	if err := m.Fit(nil, nil); !errors.Is(err, ErrEmptyDataset) {
		t.Fatal("empty fit should error")
	}
	if err := m.Fit([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatal("mismatch should error")
	}
	if m.Predict([]float64{1}) != 0 || m.Leaves() != 0 {
		t.Fatal("unfitted M5P defaults wrong")
	}
	// Tiny dataset: falls back to mean leaf.
	if err := m.Fit([][]float64{{1, 2}, {2, 3}}, []float64{5, 7}); err != nil {
		t.Fatal(err)
	}
	if p := m.Predict([]float64{1, 2}); p < 5 || p > 7 {
		t.Fatalf("tiny-data prediction should be within label range, got %f", p)
	}
}

func TestSVRFitsLinearTrend(t *testing.T) {
	x, y := synthRegression(500, 0.2)
	m := NewSVR()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	met := EvaluateModel(m, x, y)
	if met.R2 < 0.9 {
		t.Fatalf("SVR should fit the linear data, R2=%f", met.R2)
	}
	if m.Name() != "SVR" {
		t.Fatal("name wrong")
	}
}

func TestSVRErrorsAndDefaults(t *testing.T) {
	m := NewSVR()
	if err := m.Fit(nil, nil); !errors.Is(err, ErrEmptyDataset) {
		t.Fatal("empty fit should error")
	}
	if err := m.Fit([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatal("mismatch should error")
	}
	if m.Predict([]float64{1}) != 0 {
		t.Fatal("unfitted SVR should predict 0")
	}
	// Zero/negative hyper-parameters fall back to defaults without crashing.
	m = &SVR{C: -1, Epsilon: -1, Epochs: -1, seedState: 1}
	if err := m.Fit([][]float64{{1}, {2}, {3}, {4}}, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
}

func TestSVRDeterministic(t *testing.T) {
	x, y := synthRegression(200, 0.2)
	a, b := NewSVR(), NewSVR()
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if a.Predict(x[i]) != b.Predict(x[i]) {
			t.Fatal("SVR training must be deterministic")
		}
	}
}

func TestLSSVMFitsNonlinearData(t *testing.T) {
	// y = sin(x) scaled — a shape linear models cannot capture.
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		v := float64(i) / 300 * 6
		x = append(x, []float64{v})
		y = append(y, 100*math.Sin(v))
	}
	m := NewLSSVM()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	met := EvaluateModel(m, x, y)
	if met.R2 < 0.95 {
		t.Fatalf("LS-SVM with RBF kernel should fit sin well, R2=%f", met.R2)
	}
	lin := NewLinearRegression()
	if err := lin.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if EvaluateModel(lin, x, y).R2 > met.R2 {
		t.Fatal("LS-SVM should beat linear regression on sin data")
	}
	if m.Name() != "LS-SVM" {
		t.Fatal("name wrong")
	}
}

func TestLSSVMSubsampling(t *testing.T) {
	x, y := synthDegradation(900)
	m := &LSSVM{Gamma: 10, Sigma: 3, MaxSamples: 100}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if len(m.support) != 100 {
		t.Fatalf("expected 100 support vectors, got %d", len(m.support))
	}
	met := EvaluateModel(m, x, y)
	if met.R2 < 0.8 {
		t.Fatalf("subsampled LS-SVM should still fit, R2=%f", met.R2)
	}
}

func TestLSSVMErrorsAndDefaults(t *testing.T) {
	m := NewLSSVM()
	if err := m.Fit(nil, nil); !errors.Is(err, ErrEmptyDataset) {
		t.Fatal("empty fit should error")
	}
	if err := m.Fit([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatal("mismatch should error")
	}
	if m.Predict([]float64{1}) != 0 {
		t.Fatal("unfitted LS-SVM should predict 0")
	}
	m = &LSSVM{Gamma: -1, Sigma: -1, MaxSamples: -1}
	if err := m.Fit([][]float64{{1}, {2}, {3}}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

// TestM5PPredictionsStayWithinLabelRange guards the model-tree robustness
// fix: leaf regressions are ridge-regularised and their predictions are
// clamped to the label range seen at the leaf, so M5P can no longer
// extrapolate wildly on held-out rows far from the training data.
func TestM5PPredictionsStayWithinLabelRange(t *testing.T) {
	next := testRandSource(7)
	n, p := 160, 12
	x := make([][]float64, n)
	y := make([]float64, n)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = next() * 100
		}
		x[i] = row
		y[i] = 3*row[0] - 2*row[1] + 10*next()
		if y[i] < lo {
			lo = y[i]
		}
		if y[i] > hi {
			hi = y[i]
		}
	}
	m := NewM5P()
	if err := m.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// Probe far outside the training envelope.
	probe := make([]float64, p)
	for j := range probe {
		probe[j] = 10_000
	}
	if got := m.Predict(probe); got < lo-1e-9 || got > hi+1e-9 {
		t.Fatalf("M5P prediction %v escaped the training label range [%v, %v]", got, lo, hi)
	}
	// In-sample accuracy must remain reasonable despite the clamping.
	if metrics := EvaluateModel(m, x, y); metrics.R2 < 0.7 {
		t.Fatalf("M5P in-sample R2 = %v, want > 0.7", metrics.R2)
	}
}

// TestLSSVMAutoBandwidth checks that the automatic RBF bandwidth (sqrt of the
// feature count) lets the LS-SVM fit a smooth nonlinear target that the old
// fixed bandwidth of 1 could not represent in higher dimensions.
func TestLSSVMAutoBandwidth(t *testing.T) {
	next := testRandSource(11)
	n, p := 240, 10
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = next() * 10
		}
		x[i] = row
		y[i] = 50*math.Sin(row[0]/3) + 5*row[1] + next()
	}
	m := NewLSSVM()
	if m.Sigma != 0 {
		t.Fatalf("default Sigma should be 0 (automatic), got %v", m.Sigma)
	}
	if err := m.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if metrics := EvaluateModel(m, x, y); metrics.R2 < 0.8 {
		t.Fatalf("LS-SVM with automatic bandwidth should fit the smooth target, R2 = %v", metrics.R2)
	}
}

// testRandSource returns a tiny deterministic uniform [0,1) generator for the
// robustness tests above (xorshift, independent of math/rand).
func testRandSource(seed uint64) func() float64 {
	s := seed*2685821657736338717 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%1000000) / 1000000
	}
}
