package trg

import (
	"container/heap"
)

// reduceLiteral is the map-of-maps TRG reducer that Reduce replaced,
// kept verbatim (identifiers renamed) as the Algorithm 2 oracle: Reduce
// must return the same sequence on every graph, as Build must match
// BuildNaive for Definition 6.
//
// reduceLiteral runs the paper's TRG reduction (Algorithm 2) with K code slots
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
// nodes.
func reduceLiteral(g *Graph, k int) []int32 {
	if k < 1 {
		k = 1
	}
	r := &literalReducer{
		g:       g,
		k:       k,
		parent:  make(map[int32]int32),
		adj:     make(map[int32]map[int32]int64),
		slots:   make([][]int32, k),
		slotRep: make([]int32, k),
		slotOf:  make(map[int32]int),
	}
	for _, n := range g.nodes {
		r.parent[n] = n
	}
	pq := &literalEdgeHeap{}
	g.forEachEdge(func(a, b int32, w int64) {
		r.addAdj(a, b, w)
		heap.Push(pq, literalHeapEdge{w: w, a: a, b: b})
	})

	for pq.Len() > 0 {
		e := heap.Pop(pq).(literalHeapEdge)
		a, b := r.find(e.a), r.find(e.b)
		if a == b {
			continue // merged since the entry was pushed
		}
		// Skip stale entries whose weight no longer matches the live edge.
		if r.adj[a][b] != e.w {
			continue
		}
		_, aPlaced := r.slotOf[a]
		_, bPlaced := r.slotOf[b]
		if aPlaced && bPlaced {
			continue
		}
		if !aPlaced {
			r.place(a, pq)
		}
		if !bPlaced {
			// a's placement may have merged b away; re-resolve.
			b = r.find(e.b)
			if _, ok := r.slotOf[b]; !ok {
				r.place(b, pq)
			}
		}
	}

	out := make([]int32, 0, len(g.nodes))
	emitted := make(map[int32]bool, len(g.nodes))
	// Round-robin sweep over slot lists.
	heads := make([]int, k)
	for {
		any := false
		for s := 0; s < k; s++ {
			if heads[s] < len(r.slots[s]) {
				sym := r.slots[s][heads[s]]
				heads[s]++
				out = append(out, sym)
				emitted[sym] = true
				any = true
			}
		}
		if !any {
			break
		}
	}
	// Isolated nodes (never placed) follow in first-occurrence order.
	for _, n := range g.nodes {
		if !emitted[n] {
			out = append(out, n)
		}
	}
	return out
}

type literalReducer struct {
	g      *Graph
	k      int
	parent map[int32]int32
	// adj holds live edge weights between node representatives.
	adj map[int32]map[int32]int64
	// slots[i] is the linked list of code blocks assigned to slot i, in
	// arrival order. slotRep[i] is the representative of the slot's
	// merged TRG node (only meaningful for non-empty slots).
	slots   [][]int32
	slotRep []int32
	slotOf  map[int32]int // representative -> slot index
}

func (r *literalReducer) find(x int32) int32 {
	for r.parent[x] != x {
		r.parent[x] = r.parent[r.parent[x]]
		x = r.parent[x]
	}
	return x
}

func (r *literalReducer) addAdj(a, b int32, w int64) {
	if r.adj[a] == nil {
		r.adj[a] = make(map[int32]int64)
	}
	if r.adj[b] == nil {
		r.adj[b] = make(map[int32]int64)
	}
	r.adj[a][b] += w
	r.adj[b][a] += w
}

func (r *literalReducer) removeEdge(a, b int32) {
	if m := r.adj[a]; m != nil {
		delete(m, b)
	}
	if m := r.adj[b]; m != nil {
		delete(m, a)
	}
}

// place assigns the unplaced node rep to a slot per steps 4-22 of
// Algorithm 2.
func (r *literalReducer) place(node int32, pq *literalEdgeHeap) {
	slot := -1
	conflicts := int64(-1) // -1 encodes the algorithm's initial ∞
	for s := 0; s < r.k; s++ {
		if len(r.slots[s]) == 0 {
			slot = s
			conflicts = -2 // marks "empty slot chosen"
			break
		}
		w, ok := r.adj[node][r.slotRep[s]]
		if !ok {
			// No recorded conflicts with this slot's node: Algorithm 2
			// compares the edge weight, and an absent edge weighs 0.
			w = 0
		}
		if conflicts == -1 || w < conflicts {
			slot = s
			conflicts = w
		}
	}
	r.slots[slot] = append(r.slots[slot], node)
	if conflicts == -2 {
		// First occupant: the node becomes the slot's TRG node. Steps
		// 19-21 still apply: its edges to the other slots' nodes are
		// dropped (the nodes now sit in different cache slots, so they
		// no longer conflict).
		r.slotRep[slot] = node
		r.slotOf[node] = slot
		for s := 0; s < r.k; s++ {
			if s != slot && len(r.slots[s]) > 0 {
				r.removeEdge(node, r.slotRep[s])
			}
		}
		return
	}
	// Combine node into the slot's TRG node (step 18).
	rep := r.slotRep[slot]
	merged := r.merge(rep, node, pq)
	r.slotRep[slot] = merged
	delete(r.slotOf, rep)
	r.slotOf[merged] = slot
	// Steps 19-21: remove edges between the merged node and the other
	// slots' nodes.
	for s := 0; s < r.k; s++ {
		if s == slot || len(r.slots[s]) == 0 {
			continue
		}
		r.removeEdge(merged, r.slotRep[s])
	}
}

// merge unions node b into node a in the graph, combining edges, and
// pushes refreshed heap entries for every changed edge.
func (r *literalReducer) merge(a, b int32, pq *literalEdgeHeap) int32 {
	// Union by adjacency degree: relabel the smaller side.
	if len(r.adj[a]) < len(r.adj[b]) {
		a, b = b, a
	}
	r.parent[b] = a
	for nb, w := range r.adj[b] {
		if nb == a {
			continue
		}
		delete(r.adj[nb], b)
		if r.adj[a] == nil {
			r.adj[a] = make(map[int32]int64)
		}
		r.adj[a][nb] += w
		if r.adj[nb] == nil {
			r.adj[nb] = make(map[int32]int64)
		}
		r.adj[nb][a] += w
		heap.Push(pq, literalHeapEdge{w: r.adj[a][nb], a: a, b: nb})
	}
	delete(r.adj[a], b)
	delete(r.adj, b)
	return a
}

// literalHeapEdge orders edges by descending weight; ties break toward smaller
// node IDs for determinism.
type literalHeapEdge struct {
	w    int64
	a, b int32
}

type literalEdgeHeap []literalHeapEdge

func (h literalEdgeHeap) Len() int { return len(h) }
func (h literalEdgeHeap) Less(i, j int) bool {
	if h[i].w != h[j].w {
		return h[i].w > h[j].w
	}
	ka, kb := pairKey(h[i].a, h[i].b), pairKey(h[j].a, h[j].b)
	return ka < kb
}
func (h literalEdgeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *literalEdgeHeap) Push(x interface{}) { *h = append(*h, x.(literalHeapEdge)) }
func (h *literalEdgeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
