package stats

import (
	"math"
	"testing"
	"time"
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

// TestNearestRank pins the nearest-rank rule the run reports share: the
// element of rank ⌈p·n/100⌉, clamped to the slice, and 0 when empty.
func TestNearestRank(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	twenty := make([]int, 20)
	for i := range twenty {
		twenty[i] = i + 1
	}
	cases := []struct {
		name   string
		sorted []time.Duration
		p      int
		want   time.Duration
	}{
		{"empty", nil, 50, 0},
		{"n=1 p0", ms(7), 0, 7 * time.Millisecond},
		{"n=1 p50", ms(7), 50, 7 * time.Millisecond},
		{"n=1 p95", ms(7), 95, 7 * time.Millisecond},
		{"n=1 p99", ms(7), 99, 7 * time.Millisecond},
		{"n=1 p100", ms(7), 100, 7 * time.Millisecond},
		{"n=5 p0", ms(1, 2, 3, 4, 5), 0, 1 * time.Millisecond},
		{"n=5 p50", ms(1, 2, 3, 4, 5), 50, 3 * time.Millisecond},
		{"n=5 p95", ms(1, 2, 3, 4, 5), 95, 5 * time.Millisecond},
		{"n=5 p99", ms(1, 2, 3, 4, 5), 99, 5 * time.Millisecond},
		{"n=5 p100", ms(1, 2, 3, 4, 5), 100, 5 * time.Millisecond},
		{"n=20 p0", ms(twenty...), 0, 1 * time.Millisecond},
		{"n=20 p50", ms(twenty...), 50, 10 * time.Millisecond},
		{"n=20 p95", ms(twenty...), 95, 19 * time.Millisecond},
		{"n=20 p99", ms(twenty...), 99, 20 * time.Millisecond},
		{"n=20 p100", ms(twenty...), 100, 20 * time.Millisecond},
		{"below 0 clamps", ms(1, 2, 3), -300, 1 * time.Millisecond},
		{"above 100 clamps", ms(1, 2, 3), 250, 3 * time.Millisecond},
	}
	for _, c := range cases {
		if got := NearestRank(c.sorted, c.p); got != c.want {
			t.Errorf("%s: NearestRank(p=%d) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}
