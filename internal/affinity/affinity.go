// Package affinity implements the paper's extension of reference affinity
// to whole-program code layout (§II-B).
//
// Two code blocks have w-window affinity (Definition 3) iff every
// occurrence of each has a corresponding occurrence of the other such
// that the footprint of the window formed by the two occurrences is at
// most w. For a given w this induces an affinity partition (Definition
// 4); as w grows from 1 upward the partitions form the affinity
// hierarchy (Definition 5), built here so that lower-level groups take
// precedence (groups at level w merge whole groups of level w-1, which
// both disambiguates the non-unique w-window partition and guarantees a
// hierarchy). The optimized code sequence is a bottom-up traversal of
// the hierarchy.
//
// Two analyses are provided: BuildHierarchyNaive follows Algorithm 1 and
// the definitions directly (quadratic, used for validation), while
// BuildHierarchy is the paper's efficient solution — an LRU stack
// simulation per window size that records co-occurrence coverage in
// O(W·N·w) time. The hot path keeps its working set flat (DESIGN.md §9):
// per-pair histograms live in an open-addressed table with inline
// counter slabs, per-occurrence partner merging uses an epoch-stamped
// dense scratch, and an optional Arena recycles every buffer across
// calls.
package affinity

import (
	"context"
	"math"
	"slices"
	"sort"

	"codelayout/internal/flathash"
	"codelayout/internal/obs"
	"codelayout/internal/trace"
)

// Options configures the hierarchy construction.
type Options struct {
	// WMax is the largest window size analyzed. The paper chooses w
	// between 2 and 20 ("to improve efficiency, we choose w between 2
	// and 20"); 0 means the default of 20.
	WMax int
	// Workers bounds the analysis concurrency: 0 means every available
	// core, 1 pins the serial reference path. The built hierarchy is
	// byte-identical for every setting — the stack passes shard the
	// trace with exact LRU warm-up and the per-shard histograms merge
	// by commutative addition (DESIGN.md §7).
	Workers int
	// Arena recycles the analysis' internal buffers across calls; nil
	// allocates fresh buffers. It is an execution knob, not a model
	// parameter — the hierarchy is identical either way.
	Arena *Arena
}

// DefaultWMax matches the paper's upper end of the analyzed window range.
const DefaultWMax = 20

// Partition is the w-window affinity partition of the trace's symbols.
type Partition struct {
	W int
	// Groups lists the affinity groups; within a group and across
	// groups, symbols are ordered by first occurrence in the trace, so
	// the partition (and the sequence derived from it) is deterministic.
	Groups [][]int32
}

// Hierarchy is the affinity hierarchy: one partition per window size
// from 1 to WMax. Levels[i] is the partition for w = i+1.
type Hierarchy struct {
	Levels []Partition
	// firstOcc maps each symbol to its first-occurrence position (dense,
	// -1 when absent), the tie-breaking order used everywhere.
	firstOcc []int32
	// occCount maps each symbol to its occurrence count in the trimmed
	// trace, used to order sibling groups hot-first in Sequence.
	occCount []int64
}

// Partition returns the partition at window size w (1 <= w <= WMax).
func (h *Hierarchy) Partition(w int) Partition { return h.Levels[w-1] }

// WMax returns the largest analyzed window size.
func (h *Hierarchy) WMax() int { return len(h.Levels) }

// Sequence produces the optimized code sequence: a bottom-up traversal
// of the hierarchy, reading the groups off the top level (each group
// internally preserves the lower levels' order, so strongly affine
// blocks stay adjacent — Figure 1's output B1 B4 B2 B3 B5).
//
// The paper leaves the order of sibling groups unspecified ("simply a
// bottom-up traversal"). Here siblings are ordered by hotness band
// (log2 of the per-block occurrence count, descending) and by first
// occurrence within a band. Banding matters for instruction-cache
// packing: rarely executed groups (cold error paths) sink below all hot
// groups instead of interleaving with them by first-occurrence
// accident, while same-hotness groups keep their temporal (phase)
// order.
func (h *Hierarchy) Sequence() []int32 {
	if len(h.Levels) == 0 {
		return nil
	}
	top := h.Levels[len(h.Levels)-1]
	type ranked struct {
		group []int32
		band  int
		first int32
	}
	groups := make([]ranked, len(top.Groups))
	for i, g := range top.Groups {
		var total int64
		for _, s := range g {
			total += h.occCount[s]
		}
		avg := total / int64(len(g))
		band := 0
		for v := avg; v > 0; v >>= 1 {
			band++
		}
		groups[i] = ranked{group: g, band: band, first: h.firstOcc[g[0]]}
	}
	sort.SliceStable(groups, func(a, b int) bool {
		if groups[a].band != groups[b].band {
			return groups[a].band > groups[b].band
		}
		return groups[a].first < groups[b].first
	})
	var seq []int32
	for _, g := range groups {
		seq = append(seq, g.group...)
	}
	return seq
}

// pairKey packs an unordered symbol pair, smaller symbol first. Pairs
// always hold two distinct symbols, so the packed key is never 0 — the
// empty-slot sentinel of the flat tables.
func pairKey(a, b int32) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(int32(b))&0xffffffff
}

// BuildHierarchy runs the efficient stack-simulation analysis. For each
// occurrence of a block x, the analysis needs the minimal footprint of a
// window joining the occurrence to some occurrence of each partner y
// (Definition 3 quantifies over every occurrence). Two LRU stack passes
// provide it:
//
//   - forward pass: when x is accessed, a partner y at stack depth d has
//     its last occurrence exactly d distinct blocks back, so the
//     occurrence is covered backward with footprint d;
//   - backward pass over the reversed trace: symmetric, covering the
//     occurrence forward to the next y.
//
// Folding the per-occurrence minima into a per-pair histogram yields,
// for every pair, the smallest w at which all occurrences of both blocks
// are covered — i.e. the level where the pair becomes affine. Total cost
// is O(N·wmax) time, matching the paper's "efficient solution" in §II-B.
func BuildHierarchy(t *trace.Trace, opt Options) *Hierarchy {
	h, _ := BuildHierarchyCtx(context.Background(), t, opt)
	return h
}

// BuildHierarchyCtx is BuildHierarchy with cancellation: the shard loops
// check ctx periodically, so a job deadline can interrupt a long analysis
// mid-phase. On cancellation the partial hierarchy is discarded and
// ctx's error returned.
//
// The buffered build is the streaming Feeder fed the whole trimmed trace
// at once with no arrival cuts, so Finish cuts it into one shard per
// worker: there is one dispatch-and-merge path, and "streamed equals
// buffered" is a property of how the trace is chunked.
func BuildHierarchyCtx(ctx context.Context, t *trace.Trace, opt Options) (*Hierarchy, error) {
	sp := obs.StartSpan(ctx, "affinity.hierarchy")
	defer sp.End()
	tt := t.Trimmed()
	f := newFeeder(ctx, opt, math.MaxInt)
	if err := f.Feed(tt.Syms); err != nil {
		f.Abort()
		return nil, err
	}
	return f.finish(sp)
}

// buildLevels fills hierarchy levels 2..wmax from the per-pair minimal
// affinity windows: Algorithm 1's greedy merge with lower-level
// precedence, as naiveLevels states it, where each unit of level w-1
// joins the first group of level w (in creation order) with which every
// cross pair is affine at w, or starts a new group. The merge chain is
// sequential, since level w merges whole groups of level w-1, so it runs
// on an index instead of trying every group: a group can take a unit
// only if all its members are affine at w with the unit's first block,
// and counting that block's affine partners per group finds exactly
// those groups. Only they get the full cross-pair check.
//
// Units arrive in first-occurrence order of their first block, and a
// group's first block is its creating unit's, so groups come out in
// first-occurrence order with no sort.
func buildLevels(h *Hierarchy, wmax int, minW *flathash.Sum64) {
	off, partners := partnerIndex(len(h.firstOcc), minW)
	n := len(h.Levels[0].Groups)
	groupOf := make([]int32, len(h.firstOcc)) // symbol -> group at this level
	count := make([]int32, n)                 // affine partners per group, stamped
	stamp := make([]int32, n)
	var cands []int32
	epoch := int32(0)
	prev := h.Levels[0]
	for w := 2; w <= wmax; w++ {
		for _, unit := range prev.Groups {
			for _, s := range unit {
				groupOf[s] = -1
			}
		}
		groups := make([][]int32, 0, len(prev.Groups))
		for _, unit := range prev.Groups {
			epoch++
			cands = cands[:0]
			for _, p := range partners[off[unit[0]]:off[unit[0]+1]] {
				if int(p.w) > w {
					break
				}
				g := groupOf[p.sym]
				if g < 0 {
					continue
				}
				if stamp[g] != epoch {
					stamp[g], count[g] = epoch, 0
				}
				if count[g]++; int(count[g]) == len(groups[g]) {
					cands = append(cands, g)
				}
			}
			slices.Sort(cands)
			target := int32(len(groups))
			for _, g := range cands {
				if unitCompatible(unit[1:], groups[g], minW, int64(w)) {
					target = g
					break
				}
			}
			if int(target) == len(groups) {
				groups = append(groups, nil)
			}
			groups[target] = append(groups[target], unit...)
			for _, s := range unit {
				groupOf[s] = target
			}
		}
		prev = Partition{W: w, Groups: groups}
		h.Levels[w-1] = prev
	}
}

// partner is one entry of a symbol's affine-partner list: the partner
// and the pair's minimal affine window.
type partner struct{ sym, w int32 }

// partnerIndex lists every symbol's affine partners from the minimal
// window table, each list sorted by window: symbol s's partners are
// partners[off[s]:off[s+1]].
func partnerIndex(nsym int, minW *flathash.Sum64) (off []int32, partners []partner) {
	off = make([]int32, nsym+1)
	minW.ForEach(func(key, _ int64) {
		off[key>>32+1]++
		off[key&0xffffffff+1]++
	})
	for s := 1; s <= nsym; s++ {
		off[s] += off[s-1]
	}
	partners = make([]partner, off[nsym])
	next := slices.Clone(off[:nsym])
	minW.ForEach(func(key, w int64) {
		a, b := int32(key>>32), int32(key&0xffffffff)
		partners[next[a]] = partner{b, int32(w)}
		partners[next[b]] = partner{a, int32(w)}
		next[a]++
		next[b]++
	})
	for s := 0; s < nsym; s++ {
		slices.SortFunc(partners[off[s]:off[s+1]], func(x, y partner) int { return int(x.w - y.w) })
	}
	return off, partners
}

// minShardSpan is the smallest shard the sharded stack passes accept, in
// multiples of wmax: warm-up replays up to wmax distinct symbols, so a
// shard must cover several times that to amortize the duplicated work.
const minShardSpan = 4

// cancelCheckMask throttles the in-shard context checks: the shard loops
// poll ctx.Err() once per (cancelCheckMask+1) occurrences.
const cancelCheckMask = 0x3FFF

// reduceMinW folds the merged per-pair coverage histograms into the
// minimal-affine-window table: for each pair, the smallest w at which
// every occurrence of both symbols is covered. The histograms sum
// identically over any contiguous sharding, so every chunking of the
// trace reduces to the same table.
func reduceMinW(pairs *flathash.Slab32, occCount []int64, wmax int, arena *Arena) *flathash.Sum64 {
	minW := arena.getMinW()
	pairs.ForEach(func(key int64, counts []uint32) {
		x := int32(key >> 32)
		y := int32(key & 0xffffffff)
		wx := fullCoverageW(counts[:wmax+1], occCount[x])
		wy := fullCoverageW(counts[wmax+1:], occCount[y])
		if wx < 0 || wy < 0 {
			return // some occurrence is never covered within wmax
		}
		// Values are the minimal affine window, always >= 1, so 0 (the
		// table's absent value) keeps meaning "never affine".
		minW.Set(key, int64(max(wx, wy)))
	})
	return minW
}

// passSpan is the most occurrences one run of the two stack passes
// covers. The forward pass keeps wmax partners per occurrence for the
// backward pass, so a shard runs its passes block by block: the
// snapshot buffer stays at passSpan*wmax entries (640 KB at wmax 20)
// whatever the shard length, for a warm-up replay of about wmax
// distinct symbols on each side of each block.
const passSpan = 1 << 13

// shardPairHists runs the two stack passes over positions [lo, hi) and
// accumulates the shard's per-pair coverage histograms into st.pairs:
// counts[dir*(wmax+1)+d] counts occurrences of the dir-side symbol whose
// minimal coverage footprint is d. The histograms sum exactly over any
// contiguous split (DESIGN.md §7), so the passes run block by block into
// the one table.
func shardPairHists(ctx context.Context, st *shardState, syms []int32, maxSym int32, wmax, lo, hi int) error {
	st.prepare(maxSym, 2*(wmax+1))
	for b := lo; b < hi; b += passSpan {
		if err := st.blockPairHists(ctx, syms, maxSym, wmax, b, min(b+passSpan, hi)); err != nil {
			return err
		}
	}
	return nil
}

// blockPairHists is shardPairHists' two stack passes over one block
// [lo, hi).
func (st *shardState) blockPairHists(ctx context.Context, syms []int32, maxSym int32, wmax, lo, hi int) error {
	// Pass 1 (forward): snapshot for each position the top wmax of the
	// LRU stack straight into the span buffer, in depth order. Entry 0 of
	// a span is the current symbol itself (the stack top, depth 1), so the
	// partner at span index k has backward-coverage depth k+1. Storing the
	// snapshot verbatim avoids an intermediate buffer and copy. The
	// warm-up replays the span holding the last wmax distinct symbols
	// before lo, which fully determines the stack's top wmax.
	if cap(st.offsets) < hi-lo+1 {
		st.offsets = make([]int32, hi-lo+1)
	} else {
		st.offsets = st.offsets[:hi-lo+1]
	}
	// Each span holds at most wmax entries, so sizing the buffer up front
	// turns every snapshot append into a plain store (no growth copies).
	if spanCap := (hi - lo) * wmax; cap(st.partnerSym) < spanCap {
		st.partnerSym = make([]int32, 0, spanCap)
	} else {
		st.partnerSym = st.partnerSym[:0]
	}
	if cap(st.topk) < wmax {
		st.topk = make([]int32, 0, wmax)
	}
	st.stack.Reset(maxSym)
	stack := &st.stack
	for i := st.warmBeforeScratch(syms, lo, wmax); i < lo; i++ {
		stack.Access(syms[i])
	}
	for i := lo; i < hi; i++ {
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		stack.Access(syms[i])
		st.offsets[i-lo] = int32(len(st.partnerSym))
		st.partnerSym = stack.AppendTopK(st.partnerSym, wmax)
	}
	st.offsets[hi-lo] = int32(len(st.partnerSym))

	// Pass 2 (backward, over the reversed trace): merge forward coverage
	// with pass 1's backward coverage per occurrence, and fold minima
	// into the per-pair histograms. The warm-up replays, in reverse
	// order, the span holding the first wmax distinct symbols at or
	// after hi. The merge scratch is the epoch-stamped dense array of
	// shardState: one load and store per partner instead of a linear
	// scan over the merged set.
	st.stack.Reset(maxSym)
	for i := st.warmAfterScratch(syms, hi, wmax) - 1; i >= hi; i-- {
		stack.Access(syms[i])
	}
	stride := wmax + 1
	for i := hi - 1; i >= lo; i-- {
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		cur := syms[i]
		stack.Access(cur)
		st.bumpEpoch()
		// Span entry 0 is cur itself; partners start at index 1 with
		// backward-coverage depth 2.
		base := st.offsets[i-lo]
		for k, y := range st.partnerSym[base+1 : st.offsets[i-lo+1]] {
			st.add(y, uint8(k+2))
		}
		st.topk = stack.AppendTopK(st.topk[:0], wmax)
		for d := 1; d < len(st.topk); d++ {
			st.add(st.topk[d], uint8(d+1))
		}
		for _, y := range st.touched {
			slot := st.depthOf(y)
			if cur > y {
				slot += stride
			}
			st.pairs.Inc(pairKey(cur, y), slot)
		}
	}
	return nil
}

// warmBefore returns the largest p <= lo such that syms[p:lo] contains
// need distinct symbols (or 0 if the prefix holds fewer). Replaying
// syms[p:lo] into an empty LRU stack reproduces the full simulation's
// top-need stack prefix at position lo: the need most recent distinct
// symbols all have their last pre-lo occurrence in [p, lo), and their
// relative recency order is preserved.
//
// The kernel uses the allocation-free shardState.warmBeforeScratch;
// this map-based form is the test oracle for the shard-boundary cases.
func warmBefore(syms []int32, lo, need int) int {
	seen := make(map[int32]struct{}, need)
	p := lo
	for p > 0 && len(seen) < need {
		p--
		seen[syms[p]] = struct{}{}
	}
	return p
}

// warmAfter is warmBefore on the reversed trace: the smallest q >= hi
// such that syms[hi:q] contains need distinct symbols (or len(syms) if
// the suffix holds fewer).
func warmAfter(syms []int32, hi, need int) int {
	seen := make(map[int32]struct{}, need)
	q := hi
	for q < len(syms) && len(seen) < need {
		seen[syms[q]] = struct{}{}
		q++
	}
	return q
}

// fullCoverageW returns the smallest w such that the cumulative count of
// occurrences with minimal footprint <= w reaches total, or -1 if the
// histogram never reaches total.
func fullCoverageW(counts []uint32, total int64) int {
	var cum int64
	for d := 0; d < len(counts); d++ {
		cum += int64(counts[d])
		if cum == total {
			return d
		}
	}
	return -1
}

// newHierarchyShell prepares the hierarchy with the w=1 partition
// (every block its own group, per Definition 5) and first-occurrence
// ordering. A single pass over the trace yields the distinct symbols in
// first-occurrence order directly — no sort needed.
func newHierarchyShell(tt *trace.Trace, wmax int) *Hierarchy {
	var firstOcc []int32
	var occCount []int64
	var syms []int32
	if len(tt.Syms) > 0 {
		n := int(tt.MaxSym()) + 1
		firstOcc = make([]int32, n)
		occCount = make([]int64, n)
		for i := range firstOcc {
			firstOcc[i] = -1
		}
		for i, s := range tt.Syms {
			if firstOcc[s] < 0 {
				firstOcc[s] = int32(i)
				syms = append(syms, s)
			}
			occCount[s]++
		}
	}
	return newHierarchyShellFrom(firstOcc, occCount, syms, wmax)
}

// newHierarchyShellFrom builds the shell from already-accumulated
// first-occurrence and count tables plus the symbols in first-occurrence
// order — the form the streaming Feeder maintains incrementally.
func newHierarchyShellFrom(firstOcc []int32, occCount []int64, order []int32, wmax int) *Hierarchy {
	h := &Hierarchy{Levels: make([]Partition, wmax), firstOcc: firstOcc, occCount: occCount}
	base := Partition{W: 1, Groups: make([][]int32, len(order))}
	for i, s := range order {
		base.Groups[i] = []int32{s}
	}
	h.Levels[0] = base
	for w := 2; w <= wmax; w++ {
		h.Levels[w-1] = base // overwritten by the builder; harmless default
	}
	return h
}

// unitCompatible reports whether every cross pair between unit and
// members is affine at window w: the pair's minimal affine window is
// recorded (non-zero) and at most w.
func unitCompatible(unit, members []int32, minW *flathash.Sum64, w int64) bool {
	for _, a := range unit {
		for _, b := range members {
			mw := minW.Get(pairKey(a, b))
			if mw == 0 || mw > w {
				return false
			}
		}
	}
	return true
}
