package trg

import (
	"context"

	"codelayout/internal/flathash"
	"codelayout/internal/obs"
)

// Reduce runs the paper's TRG reduction (Algorithm 2) with K code slots
// and returns the new code sequence.
//
// The algorithm repeatedly takes the heaviest remaining edge; each
// unplaced endpoint chooses a slot — the first empty one, otherwise the
// slot whose (merged) node it conflicts with least — is appended to that
// slot's linked list, and is combined with the slot's node in the graph
// (edge weights to common neighbours add up). Edges between the newly
// merged node and the other slots' nodes are removed (steps 19-21).
// Finally the sequence is emitted by sweeping the K lists round-robin,
// popping one header per non-empty list per sweep (steps 25-29), so that
// blocks sharing a slot end up K positions apart.
//
// Nodes that never gain an edge are appended after the reduction output
// in the graph's node order, keeping the result a permutation of all
// nodes. Edge weights are conflict counts, so they are positive.
//
// The reducer works on flat arrays (DESIGN.md §9): nodes are indexed
// densely in the graph's node order, live edge weights sit in one flat
// table, the edge heap is typed, and a placement walks the node's
// neighbours instead of probing all K slots.
func Reduce(g *Graph, k int) []int32 {
	return ReduceCtx(context.Background(), g, k)
}

// ReduceCtx is Reduce recording one trg.reduce span with the graph's
// node and edge counts and the sequence length.
func ReduceCtx(ctx context.Context, g *Graph, k int) []int32 {
	sp := obs.StartSpan(ctx, "trg.reduce")
	defer sp.End()
	r := newReducer(g, max(k, 1))
	sp.SetAttr("nodes", int64(len(r.sym)))
	sp.SetAttr("edges", int64(len(r.pq)))
	seq := r.run()
	sp.SetAttr("seq_len", int64(len(seq)))
	return seq
}

// run is the main loop of Algorithm 2 followed by the emission sweep.
func (r *reducer) run() []int32 {
	for r.unplaced > 0 && len(r.pq) > 0 {
		e := r.pq.pop()
		ea, eb := r.ends(e.key)
		a, b := r.find(ea), r.find(eb)
		if a == b {
			continue // merged since the entry was pushed
		}
		// An entry never needs a staleness check: edges at an unplaced
		// node are never removed and only grow, and a grown edge's
		// refreshed entry outweighs this one, so it popped first and
		// placed the node. An entry with an unplaced endpoint is live.
		aPlaced, bPlaced := r.slotOf[a] >= 0, r.slotOf[b] >= 0
		if aPlaced && bPlaced {
			continue
		}
		if !aPlaced {
			r.place(a)
		}
		if !bPlaced {
			// a's placement may have merged b away; re-resolve.
			if b = r.find(eb); r.slotOf[b] < 0 {
				r.place(b)
			}
		}
	}
	return r.emit()
}

// reducer is Algorithm 2's working state over dense node indices
// 0..n-1 (the graph's node order). Memory is O(nodes + edges + K).
type reducer struct {
	sym    []int32 // dense index -> node ID
	index  []int32 // node ID -> dense index
	parent []int32 // union-find over dense indices

	// w holds the live edge weights between representatives, keyed by
	// the pairKey of their node IDs (a copy of the graph's own table);
	// 0 means no edge. nbrs[x] lists x's neighbours: an entry whose edge
	// was removed or merged away stays behind (w reads 0), and an edge
	// that forms again is listed again, so every walk reads w. deg[x] is
	// x's exact live degree.
	w    flathash.Sum64
	nbrs [][]int32
	deg  []int32

	// Slot i's linked list of code blocks runs head[i] -> next[...] ->
	// tail[i] in arrival order; rep[i] is the representative of the
	// slot's merged TRG node. Occupied slots are always the prefix
	// [0, used). slotOf[x] is the slot of representative x, -1 while x is
	// unplaced.
	head, tail, rep []int32
	next            []int32
	used            int
	slotOf          []int32

	unplaced int     // nodes with an edge that are not placed yet
	conflict []int64 // per-slot scratch for a full-cache placement
	pq       edgeHeap
}

func newReducer(g *Graph, k int) *reducer {
	n := len(g.nodes)
	r := &reducer{
		sym:      g.nodes,
		parent:   make([]int32, n),
		nbrs:     make([][]int32, n),
		deg:      make([]int32, n),
		head:     make([]int32, k),
		tail:     make([]int32, k),
		rep:      make([]int32, k),
		next:     make([]int32, n),
		slotOf:   make([]int32, n),
		conflict: make([]int64, k),
		pq:       make(edgeHeap, 0, g.weights.Len()),
	}
	r.index = make([]int32, len(g.seen))
	for i, s := range g.nodes {
		r.index[s] = int32(i)
		r.parent[i] = int32(i)
		r.slotOf[i] = -1
		r.next[i] = -1
	}
	r.w.CopyFrom(&g.weights)
	g.forEachEdge(func(a, b int32, w int64) {
		da, db := r.index[a], r.index[b]
		r.pq = append(r.pq, heapEdge{w: w, key: pairKey(a, b)})
		r.deg[da]++
		r.deg[db]++
	})
	// One backing array holds every initial neighbour list; a list that
	// later outgrows its share is reallocated on its own.
	back := make([]int32, 2*len(r.pq))
	off := 0
	for i, d := range r.deg {
		r.nbrs[i] = back[off : off : off+int(d)]
		off += int(d)
		if d > 0 {
			r.unplaced++
		}
	}
	for _, e := range r.pq {
		a, b := r.ends(e.key)
		r.nbrs[a] = append(r.nbrs[a], b)
		r.nbrs[b] = append(r.nbrs[b], a)
	}
	r.pq.init()
	return r
}

// key is the pairKey of representatives a and b.
func (r *reducer) key(a, b int32) int64 { return pairKey(r.sym[a], r.sym[b]) }

// ends returns the dense indices of a heap entry's endpoints, smaller
// node ID first.
func (r *reducer) ends(key int64) (int32, int32) {
	return r.index[key>>32], r.index[key&0xffffffff]
}

func (r *reducer) weight(a, b int32) int64 { return r.w.Get(r.key(a, b)) }

func (r *reducer) find(x int32) int32 {
	for r.parent[x] != x {
		r.parent[x] = r.parent[r.parent[x]]
		x = r.parent[x]
	}
	return x
}

func (r *reducer) removeEdge(a, b int32) {
	if key := r.key(a, b); r.w.Get(key) != 0 {
		r.w.Set(key, 0)
		r.deg[a]--
		r.deg[b]--
	}
}

// place assigns the unplaced representative x to a slot per steps 4-22
// of Algorithm 2.
func (r *reducer) place(x int32) {
	r.unplaced--
	if r.used < len(r.rep) {
		// First occupant of the first empty slot: x becomes the slot's
		// TRG node.
		s := r.used
		r.used++
		r.head[s], r.tail[s], r.rep[s] = x, x, x
		r.slotOf[x] = int32(s)
		r.dropSlotEdges(x)
		return
	}
	// Every slot is occupied: take the slot whose node x conflicts with
	// least, the first on ties. An absent edge weighs 0, so only x's
	// neighbours that are slot nodes need reading.
	c := r.conflict
	clear(c)
	for _, nb := range r.nbrs[x] {
		if s := r.slotOf[nb]; s >= 0 {
			c[s] = r.weight(x, nb)
		}
	}
	s := 0
	for i, w := range c {
		if w < c[s] {
			s = i
		}
	}
	r.next[r.tail[s]] = x
	r.tail[s] = x
	// Combine x into the slot's TRG node (step 18).
	r.slotOf[r.rep[s]] = -1
	m := r.merge(r.rep[s], x)
	r.rep[s] = m
	r.slotOf[m] = int32(s)
	r.dropSlotEdges(m)
}

// dropSlotEdges is steps 19-21: x now sits in a different cache slot
// from every other slot node, so their edges no longer conflict.
func (r *reducer) dropSlotEdges(x int32) {
	for _, nb := range r.nbrs[x] {
		if r.slotOf[nb] >= 0 {
			r.removeEdge(x, nb)
		}
	}
}

// merge unions node b into node a in the graph, combining edges, and
// pushes refreshed heap entries for every changed edge.
func (r *reducer) merge(a, b int32) int32 {
	// Union by live degree: relabel the smaller side.
	if r.deg[a] < r.deg[b] {
		a, b = b, a
	}
	r.parent[b] = a
	for _, nb := range r.nbrs[b] {
		if nb == a {
			continue
		}
		kb := r.key(b, nb)
		w := r.w.Get(kb)
		if w == 0 {
			continue // removed, or a repeat entry already moved
		}
		r.w.Set(kb, 0)
		ka := r.key(a, nb)
		old := r.w.Get(ka)
		r.w.Set(ka, old+w)
		if old == 0 {
			r.nbrs[a] = append(r.nbrs[a], nb)
			r.nbrs[nb] = append(r.nbrs[nb], a)
			r.deg[a]++
		} else {
			r.deg[nb]-- // nb loses b and already neighbours a
		}
		r.pq.push(heapEdge{w: old + w, key: ka})
	}
	r.removeEdge(a, b)
	r.nbrs[b] = nil
	return a
}

// emit sweeps the slot lists round-robin, one header per non-empty list
// per sweep, then appends the never-placed nodes in node order.
func (r *reducer) emit() []int32 {
	out := make([]int32, 0, len(r.sym))
	placed := make([]bool, len(r.sym))
	cur := r.head[:r.used]
	for live := r.used; live > 0; {
		live = 0
		for s, x := range cur {
			if x < 0 {
				continue
			}
			out = append(out, r.sym[x])
			placed[x] = true
			cur[s] = r.next[x]
			live++
		}
	}
	for i, s := range r.sym {
		if !placed[i] {
			out = append(out, s)
		}
	}
	return out
}

// heapEdge is one edge-heap entry: the edge's weight when pushed and the
// pairKey of its endpoints' node IDs, which breaks weight ties toward
// smaller IDs.
type heapEdge struct {
	w, key int64
}

// edgeHeap is a binary max-heap on (weight desc, key asc).
type edgeHeap []heapEdge

func (h edgeHeap) before(i, j int) bool {
	if h[i].w != h[j].w {
		return h[i].w > h[j].w
	}
	return h[i].key < h[j].key
}

func (h edgeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *edgeHeap) push(e heapEdge) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *edgeHeap) pop() heapEdge {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	*h = q[:last]
	h.down(0)
	return top
}

func (h edgeHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h edgeHeap) down(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.before(c+1, c) {
			c++
		}
		if !h.before(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
