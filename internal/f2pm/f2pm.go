// Package f2pm reproduces the F2PM framework ("A Machine Learning-based
// Framework for Building Application Failure Prediction Models", DPDNS 2015)
// that ACM builds on.  F2PM is application-agnostic: during a profiling phase
// a thin monitoring client measures a large set of system features on each
// virtual machine and ships them to a feature monitor agent, which builds a
// labelled database; an automatic ML toolchain then selects the relevant
// features via Lasso regularisation, trains several candidate models (Linear
// Regression, M5P, REP-Tree, Lasso, SVM, LS-SVM), validates them, and reports
// the metrics that let the user pick the model used at runtime to predict the
// Remaining Time To Failure (RTTF).
package f2pm

import (
	"fmt"
	"strings"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/validate"
)

// The toolchain's fixed settings.  trainFraction of each VM's time-ordered
// samples train the candidates, and the rest is the held-out test split.
// lassoLambda is the regularisation strength of the feature selection, which
// keeps at least minFeatures features.
const (
	trainFraction = 0.7
	lassoLambda   = 0.1
	minFeatures   = 4
)

// Config tunes the F2PM training toolchain.
type Config struct {
	// CVFolds is the number of cross-validation folds computed for the chosen
	// model (informational; DefaultConfig uses 5).  1 skips it.
	CVFolds int `domain:">0"`
	// PreferredModel forces the runtime model by name ("REPTree", "M5P", ...).
	// When empty the model with the smallest held-out RMSE is chosen.  The
	// paper selects REP-Tree based on the results in the F2PM paper.
	PreferredModel string
}

// DefaultConfig returns the configuration used by the paper's evaluation:
// REP-Tree as the runtime predictor (selected per the authors' previous F2PM
// results), 70/30 time-ordered split and Lasso-based feature selection.
func DefaultConfig() Config {
	return Config{PreferredModel: "REPTree", CVFolds: 5}
}

// SelectedFeature reports one feature retained by Lasso selection.
type SelectedFeature struct {
	// Name is the feature name.
	Name features.Name
	// Importance is the absolute standardised Lasso coefficient.
	Importance float64
}

// Report summarises a toolchain run: what was selected, how each candidate
// model scored, and which model became the runtime predictor.
type Report struct {
	// Selected lists the retained features, most important first.
	Selected []SelectedFeature
	// LassoLambda is the penalty that produced the selection.
	LassoLambda float64
	// Scores holds the held-out metrics of every candidate, best (smallest
	// RMSE) first.
	Scores []ml.ModelScore
	// Chosen is the name of the model installed as the runtime predictor.
	Chosen string
	// ChosenMetrics are the held-out metrics of the chosen model.
	ChosenMetrics ml.Metrics
	// CrossValidation holds the k-fold CV metrics of the chosen model (zero
	// value when CV was skipped).
	CrossValidation ml.Metrics
}

// Table renders the model-comparison table (the E4 experiment of the
// reproduction): one row per candidate model with its held-out metrics.
func (r Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s %12s %10s %10s\n", "model", "MAE", "RMSE", "R2", "relErr")
	for _, s := range r.Scores {
		marker := " "
		if s.Name == r.Chosen {
			marker = "*"
		}
		fmt.Fprintf(&b, "%s%-17s %12.2f %12.2f %10.4f %10.4f\n",
			marker, s.Name, s.Metrics.MAE, s.Metrics.RMSE, s.Metrics.R2, s.Metrics.MeanRelativeError)
	}
	fmt.Fprintf(&b, "selected features (lambda=%.4g):", r.LassoLambda)
	for _, s := range r.Selected {
		fmt.Fprintf(&b, " %s(%.3f)", s.Name, s.Importance)
	}
	b.WriteByte('\n')
	return b.String()
}

// Model is the runtime RTTF predictor produced by the toolchain: the chosen
// regressor plus the feature subset it was trained on.
type Model struct {
	// Name is the model family name ("REPTree", ...).
	Name string
	// Features is the ordered feature subset the regressor expects.
	Features []features.Name
	// Regressor is the trained model.
	Regressor ml.Regressor
}

// PredictRTTF predicts the remaining time to failure, in seconds, from a raw
// feature vector.  Predictions are clamped at zero (a negative remaining time
// is meaningless to the controller).
func (m *Model) PredictRTTF(v features.Vector) float64 {
	row := v.Flatten(m.Features)
	p := m.Regressor.Predict(row)
	if p < 0 {
		return 0
	}
	return p
}

// ReadsFeatures returns the mask of the feature subset PredictRTTF reads, so
// a controller sampling for this model measures only those features.
func (m *Model) ReadsFeatures() features.Mask { return features.MaskOf(m.Features...) }

// Train runs the full F2PM toolchain on a labelled dataset and returns the
// runtime model together with the report.
func Train(ds *features.Dataset, cfg Config) (*Model, *Report, error) {
	if err := validate.Struct("f2pm", &cfg); err != nil {
		return nil, nil, err
	}
	if ds == nil || ds.Len() == 0 {
		return nil, nil, fmt.Errorf("f2pm: empty dataset")
	}

	train, test := ds.Split(trainFraction)
	if train.Len() == 0 || test.Len() == 0 {
		return nil, nil, fmt.Errorf("f2pm: split produced an empty partition (train=%d test=%d)", train.Len(), test.Len())
	}

	trainX, trainY := train.Matrix()
	testX, testY := test.Matrix()

	// 1. Lasso feature selection on the training split.
	sel, err := ml.SelectFeaturesLasso(trainX, trainY, lassoLambda, minFeatures)
	if err != nil {
		return nil, nil, fmt.Errorf("f2pm: feature selection: %w", err)
	}
	selNames := make([]features.Name, 0, len(sel.Selected))
	selected := make([]SelectedFeature, 0, len(sel.Selected))
	for _, idx := range sel.Selected {
		name := ds.Features[idx]
		selNames = append(selNames, name)
		selected = append(selected, SelectedFeature{Name: name, Importance: sel.Importance[idx]})
	}
	projTrainX := ml.ProjectColumns(trainX, sel.Selected)
	projTestX := ml.ProjectColumns(testX, sel.Selected)

	// 2. Train and rank all candidate models on the selected features.
	candidates := ml.DefaultCandidates(lassoLambda / 10)
	scores, err := ml.RankModels(candidates, projTrainX, trainY, projTestX, testY)
	if err != nil {
		return nil, nil, fmt.Errorf("f2pm: model ranking: %w", err)
	}

	// 3. Choose the runtime model.
	chosen := cfg.PreferredModel
	if chosen == "" {
		chosen = scores[0].Name
	}
	factory, ok := candidates[chosen]
	if !ok {
		return nil, nil, fmt.Errorf("f2pm: preferred model %q is not a known candidate", chosen)
	}
	var chosenMetrics ml.Metrics
	found := false
	for _, s := range scores {
		if s.Name == chosen {
			chosenMetrics = s.Metrics
			found = true
			break
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("f2pm: chosen model %q missing from ranking", chosen)
	}

	// 4. Refit the chosen model on the full dataset (train+test) so the
	// runtime predictor uses every labelled sample, and compute k-fold CV for
	// the report.
	fullX, fullY := ds.Matrix()
	projFullX := ml.ProjectColumns(fullX, sel.Selected)
	runtimeModel := factory()
	if err := runtimeModel.Fit(projFullX, fullY); err != nil {
		return nil, nil, fmt.Errorf("f2pm: final fit of %s: %w", chosen, err)
	}
	var cv ml.Metrics
	if cfg.CVFolds > 1 {
		cv, err = ml.CrossValidate(factory, projFullX, fullY, cfg.CVFolds)
		if err != nil {
			return nil, nil, fmt.Errorf("f2pm: cross-validation: %w", err)
		}
	}

	model := &Model{Name: chosen, Features: selNames, Regressor: runtimeModel}
	report := &Report{
		Selected:        selected,
		LassoLambda:     sel.Lambda,
		Scores:          scores,
		Chosen:          chosen,
		ChosenMetrics:   chosenMetrics,
		CrossValidation: cv,
	}
	return model, report, nil
}
