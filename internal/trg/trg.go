// Package trg implements the temporal relationship graph model of §II-C:
// Gloy & Smith's TRG construction adapted by the paper, and the paper's
// own TRG reduction (Algorithm 2) that produces a new code order instead
// of inserting inter-function space.
//
// In the TRG (Definition 6), nodes are code blocks and an edge's weight
// counts potential cache conflicts: the times two successive occurrences
// of one endpoint are interleaved with at least one occurrence of the
// other, and vice versa. Construction only examines interleavings inside
// a bounded footprint window (the paper follows Gloy & Smith's advice of
// twice the cache size).
//
// The construction's hot path mirrors the affinity analysis (DESIGN.md
// §9): edge weights accumulate in an open-addressed flat table instead of
// a Go map, the per-access interleaving scan snapshots the LRU stack
// prefix into a reusable buffer instead of paying a callback per element,
// and an optional Arena recycles all per-shard state across builds.
package trg

import (
	"context"
	"math"
	"sort"
	"sync"

	"codelayout/internal/flathash"
	"codelayout/internal/obs"
	"codelayout/internal/stackdist"
	"codelayout/internal/trace"
)

// Graph is a weighted undirected temporal relationship graph.
type Graph struct {
	weights flathash.Sum64
	// nodes lists the distinct symbols in first-occurrence order; the
	// order makes every downstream step deterministic.
	nodes []int32
	// seen is the dense membership index over node IDs.
	seen []bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// Reset clears the graph for reuse, keeping backing capacity.
func (g *Graph) Reset() {
	g.weights.Reset()
	g.nodes = g.nodes[:0]
	for i := range g.seen {
		g.seen[i] = false
	}
}

func pairKey(a, b int32) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(int32(b))&0xffffffff
}

// ensureSym grows the dense membership index to cover symbol s.
func (g *Graph) ensureSym(s int32) {
	if int(s) >= len(g.seen) {
		grown := make([]bool, int(s)+1)
		copy(grown, g.seen)
		g.seen = grown
	}
}

// AddNode registers a node even if it never gains an edge, so that the
// reduction's output remains a permutation of all code blocks.
func (g *Graph) AddNode(s int32) {
	g.ensureSym(s)
	if !g.seen[s] {
		g.seen[s] = true
		g.nodes = append(g.nodes, s)
	}
}

// AddWeight adds delta to the weight of edge (a, b).
func (g *Graph) AddWeight(a, b int32, delta int64) {
	if a == b {
		return
	}
	g.AddNode(a)
	g.AddNode(b)
	g.weights.Add(pairKey(a, b), delta)
}

// Weight returns the weight of edge (a, b), 0 if absent.
func (g *Graph) Weight(a, b int32) int64 {
	if a == b {
		return 0
	}
	return g.weights.Get(pairKey(a, b))
}

// Nodes returns the node list in first-occurrence order.
func (g *Graph) Nodes() []int32 { return g.nodes }

// NumEdges returns the number of edges with non-zero weight.
func (g *Graph) NumEdges() int {
	n := 0
	g.weights.ForEach(func(_ int64, w int64) {
		if w != 0 {
			n++
		}
	})
	return n
}

// forEachEdge visits every non-zero edge in unspecified order. Downstream
// consumers (Edges sorts; Reduce feeds a heap with a total order) do not
// depend on visit order.
func (g *Graph) forEachEdge(f func(a, b int32, w int64)) {
	g.weights.ForEach(func(key int64, w int64) {
		if w != 0 {
			f(int32(key>>32), int32(key&0xffffffff), w)
		}
	})
}

// Edge is one weighted edge, used by tests and diagnostics.
type Edge struct {
	A, B   int32
	Weight int64
}

// Edges returns all edges sorted by descending weight, then by node IDs.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.weights.Len())
	g.forEachEdge(func(a, b int32, w int64) {
		out = append(out, Edge{A: a, B: b, Weight: w})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Arena recycles the construction's working set — per-shard LRU stacks,
// snapshot buffers, epoch scratch and partial graphs — across Build
// calls, plus whole result graphs returned via PutGraph. The zero value
// is ready to use and safe for concurrent use.
type Arena struct {
	shards sync.Pool // *buildState
	graphs sync.Pool // *Graph
}

func (a *Arena) getShard() *buildState {
	if a == nil {
		return &buildState{}
	}
	if st, ok := a.shards.Get().(*buildState); ok {
		return st
	}
	return &buildState{}
}

func (a *Arena) putShard(st *buildState) {
	if a != nil {
		a.shards.Put(st)
	}
}

// GetGraph returns a cleared graph, recycled if one is pooled.
func (a *Arena) GetGraph() *Graph {
	if a == nil {
		return NewGraph()
	}
	if g, ok := a.graphs.Get().(*Graph); ok {
		g.Reset()
		return g
	}
	return NewGraph()
}

// PutGraph recycles a graph the caller no longer references.
func (a *Arena) PutGraph(g *Graph) {
	if a != nil && g != nil {
		a.graphs.Put(g)
	}
}

// buildState is the reusable working set of one shard's construction
// pass.
type buildState struct {
	stack stackdist.LRUStack
	// topk is the reusable interleaving-snapshot buffer.
	topk []int32
	// stamp/epoch is the warm-up's epoch-stamped distinct-symbol scratch.
	stamp []int32
	epoch int32
	// g accumulates the shard's partial graph; it is borrowed from the
	// Arena at dispatch.
	g *Graph
}

// warmStartScratch is warmStart on the epoch scratch, so pooled shards
// warm up without allocating.
func (st *buildState) warmStartScratch(syms []int32, maxSym int32, lo, need int) int {
	if n := int(maxSym) + 1; cap(st.stamp) < n {
		st.stamp = make([]int32, n)
		st.epoch = 0
	} else {
		st.stamp = st.stamp[:n]
	}
	st.epoch++
	if st.epoch <= 0 {
		full := st.stamp[:cap(st.stamp)]
		for i := range full {
			full[i] = 0
		}
		st.epoch = 1
	}
	count := 0
	p := lo
	for p > 0 && count < need {
		p--
		s := syms[p]
		if st.stamp[s] != st.epoch {
			st.stamp[s] = st.epoch
			count++
		}
	}
	return p
}

// Build constructs the TRG of a code trace. windowBlocks bounds the
// examined interleaving window in distinct code blocks (the footprint
// window "2C" of §II-C divided by the uniform block size); 0 means
// unbounded. At each access, if the block's previous occurrence lies
// within the window, every distinct block interleaved between the two
// occurrences receives one conflict count — the hash-table-plus-list
// stack makes the search O(1) per step as the paper describes.
//
// Build uses every available core; the graph is identical to the serial
// construction (see BuildWorkers).
func Build(t *trace.Trace, windowBlocks int) *Graph {
	return BuildWorkers(t, windowBlocks, 0)
}

// BuildWorkers is Build with bounded concurrency: 0 workers means every
// available core, 1 pins the serial reference path.
func BuildWorkers(t *trace.Trace, windowBlocks, workers int) *Graph {
	g, _ := BuildCtx(context.Background(), t, windowBlocks, workers, nil)
	return g
}

// BuildCtx is BuildWorkers with cancellation and buffer reuse: the
// streaming Feeder fed the whole trimmed trace at once with no arrival
// cuts, so Finish cuts it into one shard per worker. Each shard warms a
// private LRU stack by replaying the span holding the last windowBlocks
// distinct symbols before it, so its per-access interleaving views
// equal the full-trace simulation, and the per-shard partial graphs
// merge exactly: edge weights sum and shard node lists concatenate in
// trace order, reproducing the global first-occurrence node order. The
// shard loops poll ctx, so a job deadline can interrupt a long
// construction; on cancellation the partial graph is discarded and
// ctx's error returned. arena may be nil. It records one trg.build span
// covering the feed and the merge.
func BuildCtx(ctx context.Context, t *trace.Trace, windowBlocks, workers int, arena *Arena) (*Graph, error) {
	sp := obs.StartSpan(ctx, "trg.build")
	defer sp.End()
	tt := t.Trimmed()
	limit := windowBlocks
	if limit <= 0 {
		// The whole trace is at hand, so an unbounded window is bounded
		// by the alphabet and can still shard.
		limit = int(tt.MaxSym()) + 1
	}
	f := newFeeder(ctx, limit, workers, math.MaxInt, arena)
	if err := f.Feed(tt.Syms); err != nil {
		f.Abort()
		return nil, err
	}
	return f.finish(sp)
}

// cancelCheckMask throttles the in-shard context checks: the shard loop
// polls ctx.Err() once per (cancelCheckMask+1) accesses.
const cancelCheckMask = 0x3FFF

// buildShard accumulates the conflict counts of accesses [lo, hi) into
// g, warming the LRU stack so the shard sees exactly the stack prefix
// the full simulation would.
func buildShard(ctx context.Context, st *buildState, g *Graph, syms []int32, maxSym int32, limit, lo, hi int) error {
	st.stack.Reset(maxSym)
	stack := &st.stack
	for i := st.warmStartScratch(syms, maxSym, lo, limit); i < lo; i++ {
		stack.Access(syms[i])
	}
	for i := lo; i < hi; i++ {
		if i&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		cur := syms[i]
		g.AddNode(cur)
		// Snapshot the stack prefix above cur's previous occurrence: those
		// are exactly the blocks interleaved between the two occurrences.
		// If cur is not within the window, the previous occurrence is too
		// far away (or absent) and contributes nothing.
		between, found := stack.AppendTopKUntil(st.topk[:0], limit, cur)
		st.topk = between[:0]
		if found {
			for _, x := range between {
				g.AddNode(x)
				g.weights.Add(pairKey(cur, x), 1)
			}
		}
		stack.Access(cur)
	}
	return nil
}

// warmStart returns the largest p <= lo such that syms[p:lo] contains
// need distinct symbols (or 0 if the prefix holds fewer): replaying
// syms[p:lo] reproduces the full simulation's top-need stack prefix,
// which is all the interleaving scan ever examines. The kernel uses the
// allocation-free buildState.warmStartScratch; this map-based form is
// the test oracle for the shard-boundary cases.
func warmStart(syms []int32, lo, need int) int {
	seen := make(map[int32]struct{}, need)
	p := lo
	for p > 0 && len(seen) < need {
		p--
		seen[syms[p]] = struct{}{}
	}
	return p
}
