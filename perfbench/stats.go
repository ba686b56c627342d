package main

import (
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// percentile returns the nearest-rank p-th percentile (p in (0,100]) of
// values, which need not be sorted. It returns 0 for no values.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	rank := nearestRank(len(s), p)
	return s[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples:
// ceil(p/100 · n), clamped to [1, n].
func nearestRank(n int, p float64) int {
	r := int(p / 100 * float64(n))
	if float64(r) < p/100*float64(n) {
		r++
	}
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailSupported reports whether n samples leave at least tailBeyond of them
// strictly beyond the p-th percentile's rank.
func tailSupported(n int, p float64) bool {
	return n > 0 && n-nearestRank(n, p) >= tailBeyond
}

// median is the middle value (the mean of the middle two for an even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is one closed span of wall time.
type interval struct{ start, end time.Time }

// covered is the total length of the union of the intervals, each clipped
// to [lo, hi]. Overlapping intervals count once: concurrent fleet devices
// cover the parent span's time together, not additively.
func covered(lo, hi time.Time, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start.Before(lo) {
			iv.start = lo
		}
		if iv.end.After(hi) {
			iv.end = hi
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start.Before(clipped[b].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end.Sub(parent.start) - covered(parent.start, parent.end, children)
}

// rung is one capacity-ladder probe: the offered rate, the p99 sojourn it
// produced and whether its backlog grew.
type rung struct {
	rate        float64 // offered requests per simulated second
	p99         time.Duration
	backlogGrew bool
}

// capacity returns the highest offered rate among the rungs whose p99
// sojourn stays within limit and whose backlog does not grow, or 0 when
// none qualifies.
func capacity(rungs []rung, limit time.Duration) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.p99 <= limit && !r.backlogGrew && r.rate > best {
			best = r.rate
		}
	}
	return best
}

// backlogGrew reports whether a run's queue kept growing: a request was
// left unfinished, or the median sojourn of the last quarter of arrivals
// is more than twice that of the first quarter. A stable system's sojourns
// are stationary; an overloaded one's grow with every arrival. Sojourns are
// in arrival order.
func backlogGrew(sojourns []time.Duration, done []bool) bool {
	q := len(sojourns) / 4
	if q == 0 {
		return false
	}
	quarter := func(from int) float64 {
		vals := make([]float64, q)
		for i := range vals {
			vals[i] = float64(sojourns[from+i])
		}
		return median(vals)
	}
	for _, d := range done {
		if !d {
			return true
		}
	}
	return quarter(len(sojourns)-q) > 2*quarter(0)
}

// sloMissFrac is the share of the sent requests that missed limit: every
// completion slower than limit, plus every request that failed or was left
// unfinished (their sojourns are unbounded).
func sloMissFrac(sojourns []time.Duration, done []bool, limit time.Duration) float64 {
	if len(sojourns) == 0 {
		return 0
	}
	miss := 0
	for i, s := range sojourns {
		if !done[i] || s > limit {
			miss++
		}
	}
	return float64(miss) / float64(len(sojourns))
}
