package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("Mean mismatch")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) not NaN")
	}
}

func TestStdDev(t *testing.T) {
	if !almost(StdDev([]float64{2, 2, 2}), 0) {
		t.Error("constant stddev != 0")
	}
	if !almost(StdDev([]float64{1, 3}), 1) {
		t.Error("StdDev([1,3]) != 1")
	}
}

func TestQuantileMedian(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if !almost(Quantile(xs, 0.5), 3) {
		t.Error("median mismatch")
	}
	if !almost(Quantile(xs, 0), 1) || !almost(Quantile(xs, 1), 5) {
		t.Error("extreme quantiles mismatch")
	}
	if !almost(Quantile(xs, 0.25), 2) {
		t.Error("q25 mismatch")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) not NaN")
	}
}

func TestFitLineExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	fit, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 2) || !almost(fit.Intercept, 1) || !almost(fit.R2, 1) {
		t.Errorf("fit = %+v", fit)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := FitLine([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestPearsonSign(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	up := []float64{2, 4, 6, 8}
	down := []float64{8, 6, 4, 2}
	if !almost(Pearson(x, up), 1) {
		t.Error("perfect positive correlation != 1")
	}
	if !almost(Pearson(x, down), -1) {
		t.Error("perfect negative correlation != -1")
	}
}

func TestSpeedups(t *testing.T) {
	got := Speedups([]float64{10, 20}, []float64{5, 0})
	if !almost(got[0], 2) || !math.IsInf(got[1], 1) {
		t.Errorf("Speedups = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Max(xs) != 3 {
		t.Error("Max mismatch")
	}
	if !math.IsNaN(Max(nil)) {
		t.Error("empty Max not NaN")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	xs := []float64{4, 8, 15, 16, 23, 42}
	prop := func(a, b uint8) bool {
		q1 := float64(a%101) / 100
		q2 := float64(b%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := Quantile(xs, q1), Quantile(xs, q2)
		return v1 <= v2 && v1 >= xs[0] && v2 <= Max(xs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
