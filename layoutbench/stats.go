package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method). xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so spreads printed here match the acceptance
// check's arithmetic.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's method: j = i(n+1)/4 clamped to [1, n-1], then
		// interpolate (or extrapolate) between s[j-1] and s[j].
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// tailPct is the percentile each workload reports as job_tail_ms. It is
// fixed per workload, so runs that finish different numbers of jobs
// report the same percentile: at the job counts 10 s baseline runs
// finished (about 650 on fresh-func, 150 on fresh-bb, 500 hits on
// cluster-reuse) each leaves at least 13 samples beyond it.
var tailPct = map[string]float64{
	wlFreshFunc:    98,
	wlFreshBB:      90,
	wlClusterReuse: 95,
}

// minBeyond is how many samples a tail percentile should leave beyond
// it; a run that leaves fewer says so in its notes.
const minBeyond = 10

// tail returns the pct-th percentile of xs and the number of samples
// beyond it.
func tail(xs []float64, pct float64) (value float64, beyond int) {
	return quantile(xs, pct/100), int(math.Floor(float64(len(xs)) * (100 - pct) / 100))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
