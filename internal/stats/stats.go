// Package stats provides the small numeric helpers the experiment harness
// and the run reports use: central tendency, the nearest-rank percentile,
// linear regression (for the Fig. 12 bubble-latency fit) and speedup
// aggregation.
package stats

import (
	"errors"
	"math"
	"time"
)

// ErrEmpty is returned for empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// NearestRank returns the p-th percentile of an ascending slice by the
// nearest-rank rule: the element of rank ⌈p·n/100⌉ counting from 1, so
// p = 0 takes the first element and p = 100 the last. p outside [0,100]
// clamps to those ends, and an empty slice yields 0. The run reports'
// sojourn percentiles all come from it.
func NearestRank(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	return sorted[min(max(rank-1, 0), len(sorted)-1)]
}

// LinearFit is an ordinary-least-squares line y = Slope·x + Intercept.
type LinearFit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// FitLine fits y against x by least squares.
func FitLine(x, y []float64) (LinearFit, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return LinearFit{}, ErrEmpty
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// Pearson returns the Pearson correlation coefficient.
func Pearson(x, y []float64) float64 {
	fit, err := FitLine(x, y)
	if err != nil {
		return math.NaN()
	}
	r := math.Sqrt(fit.R2)
	if fit.Slope < 0 {
		r = -r
	}
	return r
}

// Speedups returns element-wise base[i]/test[i].
func Speedups(base, test []float64) []float64 {
	n := len(base)
	if len(test) < n {
		n = len(test)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if test[i] == 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = base[i] / test[i]
	}
	return out
}

// Max returns the maximum value.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
