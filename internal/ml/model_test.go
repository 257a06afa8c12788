package ml

import (
	"errors"
	"testing"
)

func TestEvaluateMetrics(t *testing.T) {
	pred := []float64{1, 2, 3}
	actual := []float64{1, 2, 3}
	m := Evaluate(pred, actual)
	if m.MAE != 0 || m.RMSE != 0 || m.R2 != 1 || m.N != 3 {
		t.Fatalf("perfect prediction metrics wrong: %+v", m)
	}
	m = Evaluate([]float64{2, 3, 4}, actual)
	if !almostEqual(m.MAE, 1, 1e-9) || !almostEqual(m.RMSE, 1, 1e-9) {
		t.Fatalf("off-by-one metrics wrong: %+v", m)
	}
	if m.MaxAbsError != 1 {
		t.Fatalf("max abs error wrong: %+v", m)
	}
	if m.String() == "" {
		t.Fatal("string empty")
	}
	// Degenerate inputs.
	if Evaluate(nil, nil).N != 0 {
		t.Fatal("empty evaluation should be zero")
	}
	if Evaluate([]float64{1}, []float64{1, 2}).N != 0 {
		t.Fatal("mismatched evaluation should be zero")
	}
	// Constant target, perfect prediction → R2 = 1.
	if Evaluate([]float64{5, 5}, []float64{5, 5}).R2 != 1 {
		t.Fatal("constant target perfect prediction should give R2=1")
	}
	// Constant target, imperfect prediction → R2 = 0.
	if Evaluate([]float64{6, 6}, []float64{5, 5}).R2 != 0 {
		t.Fatal("constant target bad prediction should give R2=0")
	}
}

func TestEvaluateRelativeErrorFloor(t *testing.T) {
	// Tiny actual values would explode a naive relative error; the metric
	// floors the denominator at 1.
	m := Evaluate([]float64{0.5}, []float64{0.1})
	if m.MeanRelativeError > 0.5 {
		t.Fatalf("relative error should be floored: %+v", m)
	}
}

func TestPredictAll(t *testing.T) {
	lr := NewLinearRegression()
	x, y := synthRegression(100, 0)
	if err := lr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	preds := PredictAll(lr, x)
	if len(preds) != len(x) {
		t.Fatal("PredictAll length wrong")
	}
}

func TestCrossValidate(t *testing.T) {
	x, y := synthRegression(300, 0.3)
	met, err := CrossValidate(func() Regressor { return NewLinearRegression() }, x, y, 5)
	if err != nil {
		t.Fatal(err)
	}
	if met.R2 < 0.9 {
		t.Fatalf("cross-validated linear regression should do well, R2=%f", met.R2)
	}
	if met.N != len(x) {
		t.Fatalf("CV should evaluate all samples, N=%d", met.N)
	}
	// k gets clamped.
	if _, err := CrossValidate(func() Regressor { return NewLinearRegression() }, x, y, 1); err != nil {
		t.Fatal("k<2 should be clamped, not fail")
	}
	if _, err := CrossValidate(func() Regressor { return NewLinearRegression() }, x[:3], y[:3], 10); err != nil {
		t.Fatal("k>n should be clamped, not fail")
	}
	// Errors.
	if _, err := CrossValidate(func() Regressor { return NewLinearRegression() }, nil, nil, 5); !errors.Is(err, ErrEmptyDataset) {
		t.Fatal("empty CV should error")
	}
	if _, err := CrossValidate(func() Regressor { return NewLinearRegression() }, x, y[:10], 5); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatal("mismatched CV should error")
	}
}

func TestRankModels(t *testing.T) {
	x, y := synthDegradation(600)
	cut := 450
	candidates := map[string]func() Regressor{
		"LinearRegression": func() Regressor { return NewLinearRegression() },
		"REPTree":          func() Regressor { return NewREPTree() },
		"Mean":             func() Regressor { return &meanModel{} },
	}
	scores, err := RankModels(candidates, x[:cut], y[:cut], x[cut:], y[cut:])
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("expected 3 scores, got %d", len(scores))
	}
	// Sorted by RMSE ascending.
	for i := 1; i < len(scores); i++ {
		if scores[i].Metrics.RMSE < scores[i-1].Metrics.RMSE {
			t.Fatalf("scores not sorted: %+v", scores)
		}
	}
	// The dumb mean model should rank last on a strongly trending target.
	if scores[len(scores)-1].Name != "Mean" {
		t.Fatalf("mean predictor should rank last: %+v", scores)
	}
	if _, err := RankModels(candidates, nil, nil, x, y); !errors.Is(err, ErrEmptyDataset) {
		t.Fatal("empty training set should error")
	}
}

// meanModel is a trivial baseline used by the ranking test.
type meanModel struct{ mean float64 }

func (m *meanModel) Fit(x [][]float64, y []float64) error {
	if len(y) == 0 {
		return ErrEmptyDataset
	}
	m.mean = meanOf(y)
	return nil
}
func (m *meanModel) Predict([]float64) float64 { return m.mean }
func (m *meanModel) Name() string              { return "Mean" }

func TestSelectFeaturesLasso(t *testing.T) {
	x, y := synthRegression(500, 0.2)
	res, err := SelectFeaturesLasso(x, y, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) < 2 {
		t.Fatalf("should keep the informative features, got %v", res.Selected)
	}
	// Most important feature first.
	if len(res.Selected) >= 2 && res.Importance[res.Selected[0]] < res.Importance[res.Selected[1]] {
		t.Fatalf("selection not sorted by importance: %+v", res)
	}
	// Errors.
	if _, err := SelectFeaturesLasso(nil, nil, 0.1, 1); !errors.Is(err, ErrEmptyDataset) {
		t.Fatal("empty selection should error")
	}
	if _, err := SelectFeaturesLasso(x, y[:2], 0.1, 1); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatal("mismatched selection should error")
	}
}

func TestSelectFeaturesLassoRelaxesPenalty(t *testing.T) {
	x, y := synthRegression(300, 0.2)
	// Huge penalty initially kills everything; the selector must relax it
	// until minFeatures survive.
	res, err := SelectFeaturesLasso(x, y, 1e6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) < 2 {
		t.Fatalf("selector should relax the penalty to keep 2 features, got %v", res.Selected)
	}
	if res.Lambda >= 1e6 {
		t.Fatal("lambda should have been reduced")
	}
	// minFeatures above the dimensionality is clamped.
	res, err = SelectFeaturesLasso(x, y, 0.1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) > len(x[0]) {
		t.Fatal("cannot select more features than exist")
	}
}

func TestProjectColumns(t *testing.T) {
	x := [][]float64{{1, 2, 3}, {4, 5, 6}}
	p := ProjectColumns(x, []int{2, 0})
	if p[0][0] != 3 || p[0][1] != 1 || p[1][0] != 6 {
		t.Fatalf("projection wrong: %v", p)
	}
	// Out-of-range columns read as zero.
	p = ProjectColumns(x, []int{5})
	if p[0][0] != 0 {
		t.Fatal("out-of-range column should be 0")
	}
}

func TestDefaultCandidatesAndNewByName(t *testing.T) {
	c := DefaultCandidates(0)
	want := []string{"LinearRegression", "M5P", "REPTree", "Lasso", "SVR", "LS-SVM"}
	for _, name := range want {
		f, ok := c[name]
		if !ok {
			t.Fatalf("missing candidate %s", name)
		}
		if f() == nil {
			t.Fatalf("factory for %s returned nil", name)
		}
	}
}

// Integration-style check: all six default models train on a realistic
// degradation dataset and achieve reasonable accuracy on held-out data.
func TestAllDefaultModelsTrainOnDegradationData(t *testing.T) {
	x, y := synthDegradation(800)
	cut := 600
	scores, err := RankModels(DefaultCandidates(0.01), x[:cut], y[:cut], x[cut:], y[cut:])
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 6 {
		t.Fatalf("expected 6 model scores, got %d", len(scores))
	}
	for _, s := range scores {
		if s.Metrics.N == 0 {
			t.Fatalf("model %s evaluated no samples", s.Name)
		}
		// The degradation signal spans ~3600s; any sane model should get the
		// RTTF within a few hundred seconds on average.
		if s.Metrics.MAE > 1200 {
			t.Fatalf("model %s is wildly inaccurate: %v", s.Name, s.Metrics)
		}
	}
}
