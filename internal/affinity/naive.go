package affinity

import (
	"sort"

	"codelayout/internal/flathash"
	"codelayout/internal/trace"
)

// BuildHierarchyNaive constructs the hierarchy straight from the
// definitions, as Algorithm 1 does: for each w, pairwise w-window
// affinity is decided by enumerating the occurrences of each pair and
// measuring window footprints directly. Quadratic in the trace length;
// used to validate BuildHierarchy and to reproduce the paper's Figure 1
// example exactly.
func BuildHierarchyNaive(t *trace.Trace, opt Options) *Hierarchy {
	wmax := opt.WMax
	if wmax <= 0 {
		wmax = DefaultWMax
	}
	tt := t.Trimmed()
	h := newHierarchyShell(tt, wmax)
	if len(tt.Syms) == 0 {
		return h
	}
	// The naive path stays strictly serial (Workers is ignored): it is
	// the oracle the parallel analysis is validated against, so it must
	// remain the obviously-correct transcription of the definitions. Its
	// per-pair map folds into the same flat-table form the level merge
	// queries.
	minW := &flathash.Sum64{}
	for k, w := range pairMinWindows(tt.Syms) {
		minW.Set(k, int64(w))
	}
	naiveLevels(h, wmax, minW)
	return h
}

// naiveLevels is buildLevels as Algorithm 1 states it: at each level,
// every unit tries the groups formed so far in creation order.
func naiveLevels(h *Hierarchy, wmax int, minW *flathash.Sum64) {
	prev := h.Levels[0]
	for w := 2; w <= wmax; w++ {
		prev = mergeLevel(prev, w, minW, h.firstOcc)
		h.Levels[w-1] = prev
	}
}

// mergeLevel forms the partition at window w by greedily merging the
// previous level's groups (Algorithm 1 with lower-level precedence):
// units are considered in first-occurrence order; a unit joins the first
// existing group with which *every* cross pair of blocks is affine at
// w, otherwise it starts a new group.
func mergeLevel(prev Partition, w int, minW *flathash.Sum64, firstOcc []int32) Partition {
	type group struct {
		members []int32
	}
	var groups []*group
	for _, unit := range prev.Groups {
		placed := false
		for _, g := range groups {
			if unitCompatible(unit, g.members, minW, int64(w)) {
				g.members = append(g.members, unit...)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, &group{members: append([]int32(nil), unit...)})
		}
	}
	// Units joined a group in first-occurrence order and stay contiguous
	// inside it, so lower-level groups remain adjacent in the sequence
	// (the bottom-up traversal property). Groups were also created in
	// first-occurrence order of their first unit, so no re-sorting is
	// needed — and none is allowed, since sorting members would tear
	// units apart.
	out := Partition{W: w, Groups: make([][]int32, len(groups))}
	for i, g := range groups {
		out.Groups[i] = g.members
	}
	sort.SliceStable(out.Groups, func(a, b int) bool {
		return firstOcc[out.Groups[a][0]] < firstOcc[out.Groups[b][0]]
	})
	return out
}

// pairMinWindows returns, for every symbol pair, the smallest w at which
// the pair has w-window affinity: the maximum over all occurrences (of
// either symbol) of the minimum footprint of a window joining that
// occurrence to some occurrence of the other symbol.
func pairMinWindows(syms []int32) map[int64]int {
	n := len(syms)
	// For each occurrence position i and symbol y, bestTo(i, y) is the
	// minimal footprint over windows from position i to any occurrence
	// of y. Scanning outward from i while tracking distinct symbols
	// yields it in O(n) per occurrence.
	minW := make(map[int64]int)
	for i := 0; i < n; i++ {
		x := syms[i]
		// best[y] = minimal window footprint from occurrence i to y.
		best := make(map[int32]int)
		// Scan right.
		seen := map[int32]struct{}{x: {}}
		fp := 1
		for j := i + 1; j < n; j++ {
			s := syms[j]
			if _, ok := seen[s]; !ok {
				seen[s] = struct{}{}
				fp++
			}
			if b, ok := best[s]; !ok || fp < b {
				best[s] = fp
			}
		}
		// Scan left.
		seen = map[int32]struct{}{x: {}}
		fp = 1
		for j := i - 1; j >= 0; j-- {
			s := syms[j]
			if _, ok := seen[s]; !ok {
				seen[s] = struct{}{}
				fp++
			}
			if b, ok := best[s]; !ok || fp < b {
				best[s] = fp
			}
		}
		// Fold this occurrence's requirement into each pair: the pair's
		// window must cover the worst occurrence.
		for y, b := range best {
			if y == x {
				continue
			}
			k := pairKey(x, y)
			if cur, ok := minW[k]; !ok || b > cur {
				minW[k] = b
			}
		}
	}
	// Every occurrence can reach every other symbol through some window
	// (at worst the whole trace), so minW holds an entry for every pair
	// of co-occurring symbols and the max-fold above already encodes the
	// "every occurrence" quantifier of Definition 3.
	return minW
}
