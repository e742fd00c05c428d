// Package footprint implements the locality theory of §II-A of the paper:
// the window footprint of Definition 2, the all-window average footprint
// fp(w) (computed with the Xiang et al. HOTL formula), the conversion of
// footprint into a miss-ratio curve, and the composition of co-run miss
// probability
//
//	P(self.miss) = P(self.FP + peer.FP >= C)            (Eq 1)
//	P(self.icache.miss) = P(self.FP.inst + peer.FP.inst >= C')  (Eq 2)
//
// from which the paper derives its formal definitions of locality,
// defensiveness and politeness. Footprints are measured in symbols
// (distinct code blocks, as the paper approximates) or in bytes when
// block sizes are supplied.
package footprint

import (
	"context"

	"codelayout/internal/obs"
	"codelayout/internal/parallel"
)

// Scratch is a reusable distinct-symbol marker for window footprint
// queries. The naive analyses ask for the footprint of many overlapping
// windows; a per-call map allocation dominated that hot path, so Scratch
// keeps one epoch-stamped buffer indexed by symbol ID: marking is a
// single store, and "clearing" is an epoch bump — no allocation after
// the buffer reaches the alphabet size. The zero value is ready to use;
// a Scratch is not safe for concurrent use (give each worker its own).
type Scratch struct {
	mark  []int32
	epoch int32
}

// WindowFootprint returns the number of distinct symbols in syms[i..j]
// inclusive — the footprint fp<a,b> of Definition 2 for the window formed
// by the occurrences at positions i and j. If weights is non-nil, the
// footprint is the total weight (e.g. code bytes) of the distinct symbols.
func (sc *Scratch) WindowFootprint(syms []int32, i, j int, weights []int32) int64 {
	if i > j {
		i, j = j, i
	}
	sc.epoch++
	if sc.epoch <= 0 { // epoch wrapped: re-zero once every ~2^31 calls
		sc.epoch = 1
		for k := range sc.mark {
			sc.mark[k] = 0
		}
	}
	var total int64
	for k := i; k <= j; k++ {
		s := syms[k]
		if int(s) >= len(sc.mark) {
			sc.grow(int(s) + 1)
		}
		if sc.mark[s] == sc.epoch {
			continue
		}
		sc.mark[s] = sc.epoch
		if weights != nil {
			total += int64(weights[s])
		} else {
			total++
		}
	}
	return total
}

func (sc *Scratch) grow(n int) {
	if n < 2*len(sc.mark) {
		n = 2 * len(sc.mark)
	}
	grown := make([]int32, n)
	copy(grown, sc.mark)
	sc.mark = grown
}

// WindowFootprint is the convenience form for one-off queries; repeated
// callers should hold a Scratch and use its method to avoid the per-call
// buffer allocation.
func WindowFootprint(syms []int32, i, j int, weights []int32) int64 {
	var sc Scratch
	return sc.WindowFootprint(syms, i, j, weights)
}

// Curve is the all-window average footprint function of a trace:
// FP(w) is the average amount of code (symbols or bytes) accessed in a
// window of w consecutive occurrences, averaged over all n-w+1 windows.
type Curve struct {
	// FP[w] is the average footprint of windows of length w; FP[0] = 0
	// and FP has length n+1 for a trace of n occurrences.
	FP []float64
	// Total is the footprint of the whole trace (all distinct symbols,
	// weighted if weights were supplied).
	Total float64
	// N is the trace length.
	N int
}

// NewCurve computes the average footprint curve with the closed-form
// all-window formula of Xiang et al. (HOTL, ASPLOS'13):
//
//	fp(w) = m - (1/(n-w+1)) * [ Σ_i max(f_i - w, 0)
//	                          + Σ_i max(r_i - w, 0)
//	                          + Σ_{t > w} (t - w) * rt(t) ]
//
// where m is the total (weighted) footprint, f_i the first-access time of
// symbol i (1-based), r_i = n - last_i + 1 its reverse last-access time,
// and rt the (weighted) histogram of reuse times. The computation is
// O(n + m) after a single pass over the trace.
//
// weights may be nil for unit (symbol-count) footprints; otherwise
// weights[s] is the weight of symbol s.
//
// NewCurve uses every available core for the per-window evaluation; the
// curve is bit-identical to the serial computation (see NewCurveWorkers).
func NewCurve(syms []int32, weights []int32) *Curve {
	return NewCurveWorkers(syms, weights, 0)
}

// NewCurveCtx is NewCurveWorkers recorded as a footprint.curve span on
// ctx's obs recorder, for callers inside an instrumented pipeline.
func NewCurveCtx(ctx context.Context, syms []int32, weights []int32, workers int) *Curve {
	sp := obs.StartSpan(ctx, "footprint.curve")
	defer sp.End()
	sp.SetAttr("trace_len", int64(len(syms)))
	return NewCurveWorkers(syms, weights, workers)
}

// NewCurveWorkers is NewCurve with bounded concurrency: 0 workers means
// every available core, 1 pins the serial reference path. The single
// trace pass and the deficit sweep stay sequential (they are O(n) with
// loop-carried state); the fp(w) evaluation over the n window lengths —
// each an independent read of the shared deficit table — fans out in
// contiguous chunks. Every FP[w] slot is written by exactly one worker
// with the same float operations the serial loop performs, so the curve
// is bit-identical for any worker count.
func NewCurveWorkers(syms []int32, weights []int32, workers int) *Curve {
	n := len(syms)
	c := &Curve{FP: make([]float64, n+1), N: n}
	if n == 0 {
		return c
	}
	maxSym := int32(0)
	for _, s := range syms {
		if s > maxSym {
			maxSym = s
		}
	}
	first := make([]int, maxSym+1)
	last := make([]int, maxSym+1)
	for i := range first {
		first[i] = -1
	}
	w := func(s int32) float64 {
		if weights == nil {
			return 1
		}
		return float64(weights[s])
	}
	// rt[t] accumulates the weight of reuses with reuse time t.
	rt := make([]float64, n+1)
	var m float64
	for t, s := range syms {
		if first[s] < 0 {
			first[s] = t
			m += w(s)
		} else {
			d := t - last[s]
			rt[d] += w(s)
		}
		last[s] = t
	}
	c.Total = m

	// wt[v] collects, per window-length value v in [1, n], the weight of
	// first-access times f = v, reverse-last times r = v (both 1-based),
	// and reuse times t = v. The three sums of the Xiang formula then
	// share one deficit: D(w) = Σ_{v>w} (v-w) * wt[v].
	wt := make([]float64, n+2)
	for s := int32(0); s <= maxSym; s++ {
		if first[s] < 0 {
			continue
		}
		wt[first[s]+1] += w(s) // f_i
		wt[n-last[s]] += w(s)  // r_i = n - last (last is 0-based)
	}
	for t := 1; t <= n; t++ {
		wt[t] += rt[t]
	}

	// Reverse sweep using D(w) = D(w+1) + T(w) and T(w) = T(w+1) + wt[w+1].
	deficit := make([]float64, n+2)
	var tailWeight, tailDeficit float64
	for v := n; v >= 1; v-- {
		if v+1 <= n {
			tailWeight += wt[v+1]
		}
		tailDeficit += tailWeight
		deficit[v] = tailDeficit
	}

	chunks := parallel.Chunks(n, parallel.Workers(workers), 4096)
	_ = parallel.ForEach(workers, len(chunks), func(ci int) error {
		for win := chunks[ci][0] + 1; win <= chunks[ci][1]; win++ {
			windows := float64(n - win + 1)
			c.FP[win] = m - deficit[win]/windows
			if c.FP[win] < 0 {
				c.FP[win] = 0
			}
			if c.FP[win] > m {
				c.FP[win] = m
			}
		}
		return nil
	})
	return c
}

// At returns FP(w), clamping w to [0, N].
func (c *Curve) At(w int) float64 {
	if w <= 0 {
		return 0
	}
	if w >= len(c.FP) {
		return c.Total
	}
	return c.FP[w]
}

// Slope returns FP(w+1) - FP(w), the marginal footprint growth, which the
// higher-order theory identifies with the miss rate of a cache holding
// FP(w).
func (c *Curve) Slope(w int) float64 {
	return c.At(w+1) - c.At(w)
}

// MissRatioAt returns the predicted miss ratio of a fully associative LRU
// cache of the given capacity (in the curve's footprint unit). Per the
// higher-order theory, a reuse of window length t misses iff the
// footprint accessed inside the window exceeds the capacity, so the miss
// ratio is the slope of the footprint curve just below the boundary
// window where FP first exceeds the capacity. A capacity at or above the
// total footprint yields 0 (only cold misses, which the asymptotic model
// ignores).
func (c *Curve) MissRatioAt(capacity float64) float64 {
	if c.N == 0 || capacity <= 0 {
		return 1
	}
	if c.Total <= capacity {
		return 0
	}
	w := c.searchExceeds(func(w int) float64 { return c.At(w) }, capacity)
	return clamp01(c.Slope(w - 1))
}

// searchExceeds returns the smallest window w in [1, N] with
// fill(w) > capacity. The caller guarantees fill(N) > capacity.
func (c *Curve) searchExceeds(fill func(int) float64, capacity float64) int {
	lo, hi := 1, c.N
	for lo < hi {
		mid := (lo + hi) / 2
		if fill(mid) > capacity {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// CorunMissRatio predicts the miss ratio of self when sharing a cache of
// the given capacity with peer, per Eq 1/2: a reuse of self with window
// length t misses iff self.FP(t) + peer.FP(t) exceeds the cache size
// (the peer runs concurrently, so during t units of self time the peer
// touches peer.FP(t) of the shared cache). Self's miss ratio is its
// footprint slope just below the boundary window. The two curves must
// use the same footprint unit.
func CorunMissRatio(self, peer *Curve, capacity float64) float64 {
	if self.N == 0 {
		return 0
	}
	if capacity <= 0 {
		return 1
	}
	combined := func(w int) float64 { return self.At(w) + peer.At(min(w, peer.N)) }
	if combined(self.N) <= capacity {
		return 0
	}
	w := self.searchExceeds(combined, capacity)
	return clamp01(self.Slope(w - 1))
}

// SharingReport quantifies the three benefit classes of §II-A for an
// optimization that changes a program's footprint curve from base to opt
// while co-running against peer in a shared cache of size capacity.
type SharingReport struct {
	// Locality: solo miss ratio, base vs optimized (benefit class 1).
	SoloBase, SoloOpt float64
	// Defensiveness: self co-run miss ratio, base vs optimized
	// (benefit class 2).
	SelfCorunBase, SelfCorunOpt float64
	// Politeness: the peer's co-run miss ratio when running against the
	// base vs the optimized program (benefit class 3).
	PeerCorunBase, PeerCorunOpt float64
}

// Analyze computes a SharingReport for the base and optimized footprint
// curves of a program against a peer's curve.
func Analyze(base, opt, peer *Curve, capacity float64) SharingReport {
	return SharingReport{
		SoloBase:      base.MissRatioAt(capacity),
		SoloOpt:       opt.MissRatioAt(capacity),
		SelfCorunBase: CorunMissRatio(base, peer, capacity),
		SelfCorunOpt:  CorunMissRatio(opt, peer, capacity),
		PeerCorunBase: CorunMissRatio(peer, base, capacity),
		PeerCorunOpt:  CorunMissRatio(peer, opt, capacity),
	}
}

// LocalityGain returns the relative solo miss reduction (positive is
// better).
func (r SharingReport) LocalityGain() float64 { return relGain(r.SoloBase, r.SoloOpt) }

// DefensivenessGain returns the relative reduction of self's co-run miss
// ratio.
func (r SharingReport) DefensivenessGain() float64 {
	return relGain(r.SelfCorunBase, r.SelfCorunOpt)
}

// PolitenessGain returns the relative reduction of the peer's co-run miss
// ratio caused by optimizing self.
func (r SharingReport) PolitenessGain() float64 {
	return relGain(r.PeerCorunBase, r.PeerCorunOpt)
}

func relGain(base, opt float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - opt) / base
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
