package trg

import "codelayout/internal/trace"

// BuildNaive constructs the TRG straight from Definition 6: for every
// access whose block occurred before, it scans back to that previous
// occurrence collecting the distinct blocks accessed in between, and if
// there are fewer than windowBlocks of them (0 means unbounded) each
// gains one conflict with the accessed block. Nodes appear in
// first-occurrence order. Quadratic in the trace length; it is the
// reference BuildCtx and the Feeder are validated against.
func BuildNaive(t *trace.Trace, windowBlocks int) *Graph {
	g := NewGraph()
	syms := t.Trimmed().Syms
	for i, cur := range syms {
		g.AddNode(cur)
		between := make(map[int32]struct{})
		reused := false
		for j := i - 1; j >= 0; j-- {
			if syms[j] == cur {
				reused = true
				break
			}
			between[syms[j]] = struct{}{}
		}
		if !reused || (windowBlocks > 0 && len(between) >= windowBlocks) {
			continue
		}
		for x := range between {
			g.AddWeight(cur, x, 1)
		}
	}
	return g
}
