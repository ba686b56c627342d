package contention

import (
	"sort"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/perf"
	"hetero2pipe/internal/soc"
)

// Class labels an inference request's contention level for Algorithm 2.
type Class int

// Contention classes. The paper splits requests into high (ℍ) and low (𝕃)
// contention by a percentage threshold on predicted intensity.
const (
	Low Class = iota + 1
	High
)

// String returns "H" or "L", the paper's notation.
func (c Class) String() string {
	if c == High {
		return "H"
	}
	return "L"
}

// Classify splits intensities into High/Low with a percentile threshold:
// values at or above the q-quantile (0 < q < 1, e.g. 0.5) are High. All
// inputs equal yields all Low (nothing stands out to interleave).
func Classify(intensities []float64, q float64) []Class {
	out := make([]Class, len(intensities))
	if len(intensities) == 0 {
		return out
	}
	sorted := make([]float64, len(intensities))
	copy(sorted, intensities)
	sort.Float64s(sorted)
	if sorted[0] == sorted[len(sorted)-1] {
		for i := range out {
			out[i] = Low
		}
		return out
	}
	threshold := quantile(sorted, q)
	for i, v := range intensities {
		if v >= threshold {
			out[i] = High
		} else {
			out[i] = Low
		}
	}
	return out
}

// quantile returns the q-quantile of sorted data by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Estimator predicts contention intensity for inference requests: it owns
// the fitted ridge model plus the reference processor whose PMU supplies the
// features (the paper reads the CPU PMU as the proxy for all processors).
type Estimator struct {
	ridge *RidgeModel
	ref   *soc.Processor
}

// TrainEstimator fits Eq. (1) on a training set of models: features are the
// synthetic PMU counters of each model's solo run on the reference
// processor, targets are the measured solo bus demands.
func TrainEstimator(ref *soc.Processor, trainingSet []*model.Model, alpha float64) (*Estimator, error) {
	features := make([][]float64, 0, len(trainingSet))
	targets := make([]float64, 0, len(trainingSet))
	for _, m := range trainingSet {
		features = append(features, perf.Profile(ref, m).FeatureVector())
		targets = append(targets, Measure(ref, m).DemandGBps)
	}
	ridge, err := FitRidge(features, targets, alpha)
	if err != nil {
		return nil, err
	}
	return &Estimator{ridge: ridge, ref: ref}, nil
}

// Intensity predicts the contention intensity of a new request from its PMU
// counters alone — the fast path the paper uses to avoid profiling every
// co-execution combination.
func (e *Estimator) Intensity(m *model.Model) float64 {
	v, err := e.ridge.Predict(perf.Profile(e.ref, m).FeatureVector())
	if err != nil {
		// Feature width is fixed by construction; fall back to measurement.
		return Measure(e.ref, m).DemandGBps
	}
	if v < 0 {
		v = 0
	}
	return v
}
