package ml

import (
	"fmt"
	"math"
	"sort"
)

// FeatureSelectionResult describes the outcome of Lasso-based feature
// selection: which feature indices were kept and the magnitude of each
// coefficient (in standardised space), sorted by importance.
type FeatureSelectionResult struct {
	// Selected holds the retained feature indices, most important first.
	Selected []int
	// Importance maps feature index to |standardised coefficient|.
	Importance map[int]float64
	// Lambda is the penalty used for the selection.
	Lambda float64
}

// SelectFeaturesLasso fits a Lasso model on (x, y) and returns the features
// with non-zero coefficients, mirroring how F2PM uses Lasso regularisation to
// reduce the amount of information managed at runtime.  If the requested
// penalty eliminates everything, the penalty is halved until at least
// minFeatures survive (or the penalty becomes negligible).
func SelectFeaturesLasso(x [][]float64, y []float64, lambda float64, minFeatures int) (FeatureSelectionResult, error) {
	if len(x) == 0 {
		return FeatureSelectionResult{}, ErrEmptyDataset
	}
	if len(x) != len(y) {
		return FeatureSelectionResult{}, ErrDimensionMismatch
	}
	if lambda <= 0 {
		lambda = 0.1
	}
	if minFeatures <= 0 {
		minFeatures = 1
	}
	if minFeatures > len(x[0]) {
		minFeatures = len(x[0])
	}

	cur := lambda
	for {
		lasso := NewLasso(cur)
		if err := lasso.Fit(x, y); err != nil {
			return FeatureSelectionResult{}, fmt.Errorf("ml: feature selection: %w", err)
		}
		selected := lasso.SelectedFeatures(1e-9)
		if len(selected) >= minFeatures || cur < 1e-8 {
			imp := map[int]float64{}
			for _, j := range selected {
				imp[j] = math.Abs(lasso.Coefficients[j])
			}
			sort.Slice(selected, func(a, b int) bool { return imp[selected[a]] > imp[selected[b]] })
			return FeatureSelectionResult{Selected: selected, Importance: imp, Lambda: cur}, nil
		}
		cur /= 2
	}
}

// ProjectColumns returns a copy of x restricted to the given column indices,
// in the given order.
func ProjectColumns(x [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		r := make([]float64, len(cols))
		for k, c := range cols {
			if c >= 0 && c < len(row) {
				r[k] = row[c]
			}
		}
		out[i] = r
	}
	return out
}

// DefaultCandidates returns factories for the six model families supported by
// F2PM, keyed by display name.  lassoLambda tunes the Lasso predictor.
func DefaultCandidates(lassoLambda float64) map[string]func() Regressor {
	if lassoLambda <= 0 {
		lassoLambda = 0.01
	}
	return map[string]func() Regressor{
		"LinearRegression": func() Regressor { return NewLinearRegression() },
		"M5P":              func() Regressor { return NewM5P() },
		"REPTree":          func() Regressor { return NewREPTree() },
		"Lasso":            func() Regressor { return NewLasso(lassoLambda) },
		"SVR":              func() Regressor { return NewSVR() },
		"LS-SVM":           func() Regressor { return NewLSSVM() },
	}
}
