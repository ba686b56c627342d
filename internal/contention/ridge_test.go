package contention

import (
	"math"
	"testing"
	"testing/quick"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

func TestFitRidgeRecoversLinear(t *testing.T) {
	// y = 2x₁ − 3x₂ + 0.5x₃ + 4, noiseless: near-zero alpha must recover it.
	features := [][]float64{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1},
		{2, 1, 0}, {0, 2, 1}, {3, 0, 2}, {1, 2, 3},
	}
	truth := func(x []float64) float64 { return 2*x[0] - 3*x[1] + 0.5*x[2] + 4 }
	y := make([]float64, len(features))
	for i, x := range features {
		y[i] = truth(x)
	}
	m, err := FitRidge(features, y, 1e-9)
	if err != nil {
		t.Fatalf("FitRidge: %v", err)
	}
	for _, x := range [][]float64{{5, 5, 5}, {0.1, 0.2, 0.3}, {10, -1, 2}} {
		got, err := m.Predict(x)
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		if want := truth(x); math.Abs(got-want) > 1e-5 {
			t.Errorf("Predict(%v) = %g, want %g", x, got, want)
		}
	}
}

func TestFitRidgeShrinksWeights(t *testing.T) {
	features := [][]float64{{1, 2}, {2, 1}, {3, 3}, {4, 1}, {0, 2}}
	y := []float64{3, 3, 6, 5, 2}
	low, err := FitRidge(features, y, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	high, err := FitRidge(features, y, 100)
	if err != nil {
		t.Fatal(err)
	}
	normLow := low.Weights[0]*low.Weights[0] + low.Weights[1]*low.Weights[1]
	normHigh := high.Weights[0]*high.Weights[0] + high.Weights[1]*high.Weights[1]
	if normHigh >= normLow {
		t.Errorf("‖W‖² with α=100 (%g) not below α≈0 (%g)", normHigh, normLow)
	}
}

func TestFitRidgeErrors(t *testing.T) {
	cases := []struct {
		name     string
		features [][]float64
		y        []float64
		alpha    float64
	}{
		{"empty", nil, nil, 1},
		{"mismatch", [][]float64{{1}}, []float64{1, 2}, 1},
		{"negative alpha", [][]float64{{1}}, []float64{1}, -1},
		{"empty features", [][]float64{{}}, []float64{1}, 1},
		{"ragged", [][]float64{{1, 2}, {1}}, []float64{1, 2}, 1},
	}
	for _, tc := range cases {
		if _, err := FitRidge(tc.features, tc.y, tc.alpha); err == nil {
			t.Errorf("%s: FitRidge = nil error, want error", tc.name)
		}
	}
}

func TestPredictDimensionMismatch(t *testing.T) {
	m, err := FitRidge([][]float64{{1, 2}, {2, 3}, {4, 5}}, []float64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Error("Predict with wrong width: nil error, want error")
	}
}

func TestSolveLinearSingular(t *testing.T) {
	if _, err := solveLinear([][]float64{{1, 1}, {1, 1}}, []float64{1, 2}); err == nil {
		t.Error("singular system: nil error, want error")
	}
}

// Property: ridge fit at any alpha predicts finite values on the training
// design, and alpha=0 on a well-conditioned design interpolates better than
// heavy regularisation.
func TestRidgeFiniteProperty(t *testing.T) {
	prop := func(seed uint8) bool {
		a := float64(seed%50) / 10
		features := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}}
		y := []float64{1, 2, 3, 4}
		m, err := FitRidge(features, y, a)
		if err != nil {
			return false
		}
		for _, x := range features {
			v, err := m.Predict(x)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestEstimatorPredictsIntensityOrdering: the Eq. (1) pipeline end-to-end —
// train on the zoo, then verify predictions correlate strongly with the
// measured ground-truth demands. This is the paper's claim that PMU features
// suffice to rank contention without co-execution profiling.
func TestEstimatorPredictsIntensityOrdering(t *testing.T) {
	k := soc.Kirin990()
	big := k.Processor("cpu-big")
	est, err := TrainEstimator(big, model.All(), 0.1)
	if err != nil {
		t.Fatalf("TrainEstimator: %v", err)
	}
	var pred, truth []float64
	for _, m := range model.All() {
		pred = append(pred, est.Intensity(m))
		truth = append(truth, Measure(big, m).DemandGBps)
	}
	if r := pearsonCorr(pred, truth); r < 0.7 {
		t.Errorf("corr(predicted, measured) = %.3f, want ≥ 0.7", r)
	}
}

func TestEstimatorClassify(t *testing.T) {
	k := soc.Kirin990()
	big := k.Processor("cpu-big")
	est, err := TrainEstimator(big, model.All(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var intensities []float64
	for _, m := range model.All() {
		intensities = append(intensities, est.Intensity(m))
	}
	classes := Classify(intensities, 0.5)
	if len(classes) != 10 || len(intensities) != 10 {
		t.Fatalf("got %d classes, %d intensities", len(classes), len(intensities))
	}
	var highs int
	for _, c := range classes {
		if c == High {
			highs++
		}
	}
	if highs == 0 || highs == len(classes) {
		t.Errorf("median split produced %d/%d High", highs, len(classes))
	}
}

func TestClassify(t *testing.T) {
	classes := Classify([]float64{1, 2, 3, 4}, 0.5)
	want := []Class{Low, Low, High, High}
	for i := range want {
		if classes[i] != want[i] {
			t.Errorf("Classify[%d] = %v, want %v", i, classes[i], want[i])
		}
	}
	// All-equal input: nothing is High.
	for i, c := range Classify([]float64{5, 5, 5}, 0.5) {
		if c != Low {
			t.Errorf("uniform input index %d = %v, want Low", i, c)
		}
	}
	if got := Classify(nil, 0.5); len(got) != 0 {
		t.Errorf("Classify(nil) = %v", got)
	}
	if High.String() != "H" || Low.String() != "L" {
		t.Error("Class.String mismatch")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {-1, 1}, {2, 5},
	}
	for _, tc := range cases {
		if got := quantile(sorted, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func pearsonCorr(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		cov += (x[i] - mx) * (y[i] - my)
		vx += (x[i] - mx) * (x[i] - mx)
		vy += (y[i] - my) * (y[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
