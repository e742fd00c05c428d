package trg

import (
	"context"
	"sync"

	"codelayout/internal/obs"
	"codelayout/internal/parallel"
)

// defaultFeedShardSpan is the streamed shard span when the caller leaves
// it unset: large enough that the warm-up replay (up to windowBlocks
// distinct symbols) is noise against the shard body.
const defaultFeedShardSpan = 1 << 16

// Feeder constructs the TRG incrementally over a trace arriving in
// chunks. It is the construction's only dispatch-and-merge path: BuildCtx
// is one Feed of the whole trace with no arrival cuts, so Finish cuts it
// into one shard per worker. Per-shard partial graphs merge exactly for
// ANY contiguous sharding (weights sum, node lists concatenate in trace
// order), so arrival-cut shards land on the same graph as any other
// chunking of the same trace.
//
// Unlike the affinity analysis, the construction pass only warms
// backward (the interleaving scan looks at the stack of past accesses),
// so a shard dispatches the moment its body fills — no wait for
// post-cut symbols. The slab kept in memory is bounded by the shard
// span plus the warm span; dispatched slabs recycle through a pool once
// their shard completes. Finish cuts the undispatched tail into one
// shard per worker (each at least minShardSpan*windowBlocks), all over
// the final slab, the same rule as the affinity Feeder.
//
// A Feeder is not safe for concurrent use; call Feed from one
// goroutine, then exactly one of Finish or Abort.
type Feeder struct {
	limit       int
	workers     int
	shardTarget int
	arena       *Arena
	pool        *parallel.FeedPool

	slab []int32 // warm context [0,body) + undispatched body [body,len)
	body int

	prev   int32 // last accepted symbol, for cross-chunk trimming
	n      int   // trimmed occurrences accepted so far
	maxSym int32

	seen      []int64 // epoch stamps for the warm-start scan
	seenEpoch int64

	states   []*buildState // dispatched shards, in trace order
	slabPool sync.Pool     // *[]int32
	err      error
}

// NewFeeder prepares a streaming build bound to ctx. windowBlocks and
// workers are interpreted as by BuildCtx; shardSpan overrides the
// arrival-cut shard span (0 means a default sized to amortize warm-up).
// A windowBlocks <= 0 (unbounded window) cannot stream — the warm span
// would be the whole history — so the feeder degrades to a single shard
// cut at Finish: correct, but with buffered-path memory.
func NewFeeder(ctx context.Context, windowBlocks, workers, shardSpan int, arena *Arena) *Feeder {
	if windowBlocks <= 0 {
		return newFeeder(ctx, 1<<30, workers, 1<<30, arena) // never cut before Finish
	}
	if shardSpan <= 0 {
		shardSpan = defaultFeedShardSpan
	}
	return newFeeder(ctx, windowBlocks, workers, shardSpan, arena)
}

// minShardSpan is the smallest shard the feeder cuts, in multiples of
// the window: warm-up replays up to the window's distinct blocks, so a
// shard must cover several times that to amortize the duplicated work.
const minShardSpan = 4

// newFeeder builds a feeder scanning limit distinct blocks per access and
// cutting shards of span trimmed occurrences, at least minShardSpan*limit
// so the warm-up replay stays amortized.
func newFeeder(ctx context.Context, limit, workers, span int, arena *Arena) *Feeder {
	return &Feeder{
		limit:       limit,
		workers:     parallel.Workers(workers),
		shardTarget: max(span, minShardSpan*limit),
		arena:       arena,
		pool:        parallel.NewFeedPool(ctx, workers),
		prev:        -1,
	}
}

// Feed appends one chunk of the trace. Chunk boundaries are irrelevant:
// feeding any split of a trace yields the same graph. A non-nil error
// means a dispatched shard failed (ctx canceled); the caller should
// stop feeding and call Abort.
func (f *Feeder) Feed(chunk []int32) error {
	if f.err != nil {
		return f.err
	}
	if f.slab == nil {
		// Size the first slab for this chunk's share of a shard, so a
		// buffered build's single Feed never regrows it.
		f.slab = make([]int32, 0, min(len(chunk), f.shardTarget))
	}
	for _, s := range chunk {
		if s == f.prev {
			continue // trimming, as BuildCtx does up front
		}
		if len(f.slab)-f.body >= f.shardTarget {
			// Cutting a full body only once the next symbol arrives leaves
			// a trace that ends on the boundary to Finish's last shard,
			// which needs no fresh slab.
			if err := f.dispatch(len(f.slab)); err != nil {
				f.err = err
				return err
			}
		}
		f.prev = s
		if int(s) >= len(f.seen) {
			n := int(s) + 1
			if c := 2 * len(f.seen); n < c {
				n = c
			}
			seen := make([]int64, n)
			copy(seen, f.seen)
			f.seen = seen
		}
		if s > f.maxSym {
			f.maxSym = s
		}
		f.n++
		f.slab = append(f.slab, s)
	}
	return nil
}

// N returns the number of trimmed occurrences accepted so far — the
// trace length the construction sees, matching Trimmed().Len() of the
// buffered path.
func (f *Feeder) N() int { return f.n }

// warmStart is warmStart over the slab using the feeder's stamps: the
// largest p such that slab[p:hi] holds limit distinct symbols, or 0.
// The slab-start invariant (each slab begins at a warm-up cut or at the
// trace start) makes the slab-local scan agree with the full-trace one.
func (f *Feeder) warmStart(hi int) int {
	f.seenEpoch++
	count, p := 0, hi
	for p > 0 && count < f.limit {
		p--
		s := f.slab[p]
		if f.seen[s] != f.seenEpoch {
			f.seen[s] = f.seenEpoch
			count++
		}
	}
	return p
}

func (f *Feeder) getSlab(capHint int) []int32 {
	if v := f.slabPool.Get(); v != nil {
		return (*v.(*[]int32))[:0]
	}
	return make([]int32, 0, capHint)
}

func (f *Feeder) putSlab(s []int32) {
	f.slabPool.Put(&s)
}

// dispatch freezes the current slab and hands shard [f.body, hi) to the
// pool. The feeder continues on a fresh slab that starts at the shard's
// warm-up boundary; it is filled before the shard runs, because at
// Workers=1 the shard runs inline and recycles the old slab on return.
func (f *Feeder) dispatch(hi int) error {
	lo, slab := f.body, f.slab
	p := f.warmStart(hi)
	f.slab = append(f.getSlab(f.shardTarget+f.limit), slab[p:]...)
	f.body = hi - p
	return f.submit(slab, lo, hi, true)
}

// dispatchTail hands the undispatched body to the pool as one shard per
// worker, each at least minShardSpan*limit long. The shards share the
// final slab read-only: it already holds every shard's warm-up context.
// Nothing is fed after Finish, so the shared slab is never recycled.
func (f *Feeder) dispatchTail() {
	slab, lo := f.slab, f.body
	f.slab = nil
	for _, c := range parallel.Chunks(len(slab)-lo, f.workers, minShardSpan*f.limit) {
		if f.submit(slab, lo+c[0], lo+c[1], false) != nil {
			return // the failure resurfaces from Wait
		}
	}
}

// submit hands shard [lo, hi) of slab to the pool, building into a graph
// borrowed from the arena, and returns the slab to the feeder's pool
// when the shard ends if recycle is set.
func (f *Feeder) submit(slab []int32, lo, hi int, recycle bool) error {
	maxSym, limit := f.maxSym, f.limit
	st := f.arena.getShard()
	st.g = f.arena.GetGraph()
	st.g.ensureSym(maxSym)
	f.states = append(f.states, st)
	return f.pool.Submit(func(ctx context.Context) error {
		err := buildShard(ctx, st, st.g, slab, maxSym, limit, lo, hi)
		if recycle {
			f.putSlab(slab)
		}
		return err
	})
}

// Finish seals the stream: the remaining body becomes the last shards,
// one per worker, and the partial graphs merge into the first shard's
// in trace order — edge weights sum and node lists concatenate,
// reproducing the global first-occurrence node order. The caller owns
// the returned graph (recycle it via Arena.PutGraph). It records one trg.build span with the graph's
// node count and the number of shards the stream ran.
func (f *Feeder) Finish(ctx context.Context) (*Graph, error) {
	sp := obs.StartSpan(ctx, "trg.build")
	defer sp.End()
	return f.finish(sp)
}

// finish is Finish recording into the caller's span, so a buffered build
// reports one span covering both its feed and its merge.
func (f *Feeder) finish(sp obs.Span) (*Graph, error) {
	sp.SetAttr("trace_len", int64(f.n))
	if f.err == nil && f.body < len(f.slab) {
		f.dispatchTail()
	}
	sp.SetAttr("shards", int64(len(f.states)))
	if err := f.pool.Wait(); err != nil {
		f.release()
		return nil, err
	}
	var g *Graph
	if len(f.states) == 0 {
		g = f.arena.GetGraph() // the empty trace's graph
	} else {
		// The first shard's graph absorbs the others in trace order.
		g, f.states[0].g = f.states[0].g, nil
		for _, st := range f.states[1:] {
			for _, s := range st.g.nodes {
				g.AddNode(s)
			}
			st.g.weights.ForEach(func(key int64, w int64) {
				g.weights.Add(key, w)
			})
		}
	}
	f.release()
	sp.SetAttr("nodes", int64(len(g.nodes)))
	return g, nil
}

// Abort discards the stream: it drains in-flight shards and recycles
// their buffers. Call it instead of Finish when the job is canceled.
func (f *Feeder) Abort() {
	_ = f.pool.Wait()
	f.release()
}

// release returns every shard's state and partial graph to the arena.
func (f *Feeder) release() {
	for _, st := range f.states {
		f.arena.PutGraph(st.g)
		st.g = nil
		f.arena.putShard(st)
	}
	f.states = nil
	f.slab = nil
}
