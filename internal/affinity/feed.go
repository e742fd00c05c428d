package affinity

import (
	"context"
	"sync"

	"codelayout/internal/obs"
	"codelayout/internal/parallel"
)

// defaultFeedShardSpan is the streamed shard span: large enough that the
// warm-up replay (up to wmax distinct symbols on each side) is noise
// against the shard body.
const defaultFeedShardSpan = 1 << 16

// Feeder runs the stack-simulation analysis incrementally, over a trace
// that arrives in chunks — layoutd feeding decoded upload chunks into
// the kernel while the rest of the trace is still on the network. It is
// the analysis' only dispatch-and-merge path: BuildHierarchyCtx is one
// Feed of the whole trace with no arrival cuts, so Finish cuts it into
// one shard per worker. The per-shard coverage histograms sum exactly
// for ANY contiguous sharding, so shards cut at arrival-dictated
// boundaries merge to the same minimal-window table as any other
// chunking of the same trace.
//
// The feeder keeps a single slab: the undispatched body plus just
// enough preceding context for the next shard's warm-up replay. When
// the body reaches the shard span, the cut position is remembered and
// the shard is dispatched as soon as wmax distinct symbols have arrived
// past it (the forward warm-up the backward pass needs); the slab then
// shrinks to warmBefore(cut) onward. In-flight memory is therefore
// bounded by the shard span, the warm spans, and the FeedPool's
// 2×workers in-flight cap — not by the trace length. On low-diversity
// tails (fewer than wmax distinct symbols ever arriving after a cut)
// the pending shard is held until Finish, degrading memory to the tail
// length but never correctness.
//
// Finish cuts the undispatched tail into one shard per worker (each at
// least minShardSpan*wmax), all over the final slab, so a stream shorter
// than the shard span still runs on every worker.
//
// A Feeder is not safe for concurrent use; call Feed from one
// goroutine, then exactly one of Finish or Abort.
type Feeder struct {
	wmax        int
	workers     int
	shardTarget int
	arena       *Arena
	pool        *parallel.FeedPool

	slab []int32 // warm context [0,body) + undispatched body [body,len)
	body int

	prev     int32 // last accepted symbol, for cross-chunk trimming
	n        int   // trimmed occurrences accepted so far
	maxSym   int32
	firstOcc []int32
	occCount []int64
	order    []int32 // symbols in first-occurrence order

	// seen is the epoch-stamped distinct-symbol scratch shared by the
	// pending-cut wait counter and the warm-start scan (never both live).
	seen      []int64
	seenEpoch int64
	pendingHi int // local cut index awaiting wmax distinct arrivals; -1 none
	distinct  int

	states   []*shardState // dispatched shards, in trace order
	slabPool sync.Pool     // *[]int32
	err      error
}

// NewFeeder prepares a streaming build bound to ctx. opt is interpreted
// exactly as by BuildHierarchyCtx; Workers additionally sizes the
// analysis pool the shards are dispatched to (1 analyzes inline on the
// feeding goroutine — the serial reference path).
func NewFeeder(ctx context.Context, opt Options) *Feeder {
	return newFeeder(ctx, opt, defaultFeedShardSpan)
}

// newFeeder is NewFeeder cutting shards of span trimmed occurrences, at
// least minShardSpan*wmax so the warm-up replay stays amortized. The
// span is an execution knob only: the hierarchy is identical for every
// setting.
func newFeeder(ctx context.Context, opt Options, span int) *Feeder {
	wmax := opt.WMax
	if wmax <= 0 {
		wmax = DefaultWMax
	}
	return &Feeder{
		wmax:        wmax,
		workers:     parallel.Workers(opt.Workers),
		shardTarget: max(span, minShardSpan*wmax),
		arena:       opt.Arena,
		pool:        parallel.NewFeedPool(ctx, opt.Workers),
		prev:        -1,
		pendingHi:   -1,
	}
}

// grow sizes the dense per-symbol tables for symbol s.
func (f *Feeder) grow(s int32) {
	if int(s) < len(f.firstOcc) {
		return
	}
	n := int(s) + 1
	if c := 2 * len(f.firstOcc); n < c {
		n = c
	}
	firstOcc := make([]int32, n)
	copy(firstOcc, f.firstOcc)
	for i := len(f.firstOcc); i < n; i++ {
		firstOcc[i] = -1
	}
	f.firstOcc = firstOcc
	occCount := make([]int64, n)
	copy(occCount, f.occCount)
	f.occCount = occCount
	seen := make([]int64, n)
	copy(seen, f.seen)
	f.seen = seen
}

// Feed appends one chunk of the trace. Chunk boundaries are irrelevant:
// feeding any split of a trace yields the same hierarchy. A non-nil
// error means a dispatched shard failed (ctx canceled); the caller
// should stop feeding and call Abort.
func (f *Feeder) Feed(chunk []int32) error {
	if f.err != nil {
		return f.err
	}
	if f.slab == nil {
		// Size the first slab for this chunk's share of a shard, so a
		// buffered build's single Feed never regrows it.
		f.slab = make([]int32, 0, min(len(chunk), f.shardTarget)+2*f.wmax)
	}
	for _, s := range chunk {
		if s == f.prev {
			continue // trimming, as BuildHierarchyCtx does up front
		}
		f.prev = s
		f.grow(s)
		if s > f.maxSym {
			f.maxSym = s
		}
		if f.firstOcc[s] < 0 {
			f.firstOcc[s] = int32(f.n)
			f.order = append(f.order, s)
		}
		f.occCount[s]++
		f.n++
		f.slab = append(f.slab, s)
		if f.pendingHi >= 0 {
			// A cut is waiting for its forward warm span: wmax distinct
			// symbols past the cut pin down the backward pass's stack.
			if f.seen[s] != f.seenEpoch {
				f.seen[s] = f.seenEpoch
				f.distinct++
				if f.distinct >= f.wmax {
					if err := f.dispatch(f.pendingHi); err != nil {
						f.err = err
						return err
					}
				}
			}
		} else if len(f.slab)-f.body >= f.shardTarget {
			f.seenEpoch++
			f.distinct = 0
			f.pendingHi = len(f.slab)
		}
	}
	return nil
}

// N returns the number of trimmed occurrences accepted so far — the
// trace length the analysis sees, matching Trimmed().Len() of the
// buffered path.
func (f *Feeder) N() int { return f.n }

// warmStart is warmBefore over the slab using the feeder's stamps: the
// largest p such that slab[p:hi] holds wmax distinct symbols, or 0. The
// slab-start invariant (each slab begins at a warmBefore cut or at the
// trace start) makes the slab-local scan agree with the full-trace one.
func (f *Feeder) warmStart(hi int) int {
	f.seenEpoch++
	count, p := 0, hi
	for p > 0 && count < f.wmax {
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
// own warm-up boundary, so the next shard warms up exactly as the
// full-trace simulation would. The fresh slab is filled before the shard
// runs: at Workers=1 it runs inline and recycles the old slab on return.
func (f *Feeder) dispatch(hi int) error {
	lo, slab := f.body, f.slab
	p := f.warmStart(hi)
	f.slab = append(f.getSlab(f.shardTarget+2*f.wmax), slab[p:]...)
	f.body = hi - p
	f.pendingHi = -1
	return f.submit(slab, lo, hi, true)
}

// dispatchTail hands the undispatched body to the pool as one shard per
// worker, each at least minShardSpan*wmax long. The shards share the
// final slab read-only: it already holds every shard's backward warm-up
// context and, running to the trace end, every forward one. Nothing is
// fed after Finish, so the shared slab is never recycled.
func (f *Feeder) dispatchTail() {
	slab, lo := f.slab, f.body
	f.slab = nil
	for _, c := range parallel.Chunks(len(slab)-lo, f.workers, minShardSpan*f.wmax) {
		if f.submit(slab, lo+c[0], lo+c[1], false) != nil {
			return // the failure resurfaces from Wait
		}
	}
}

// submit hands shard [lo, hi) of slab to the pool, returning the slab to
// the feeder's pool when the shard ends if recycle is set.
func (f *Feeder) submit(slab []int32, lo, hi int, recycle bool) error {
	maxSym, wmax := f.maxSym, f.wmax
	st := f.arena.getShard()
	f.states = append(f.states, st)
	return f.pool.Submit(func(ctx context.Context) error {
		err := shardPairHists(ctx, st, slab, maxSym, wmax, lo, hi)
		if recycle {
			f.putSlab(slab)
		}
		return err
	})
}

// Finish seals the stream: the remaining body becomes the last shards,
// one per worker (their forward warm-up spans end at the true trace
// end at the latest), every shard's histograms merge in trace order, and
// the hierarchy levels are built from the merged table. It records one
// affinity.hierarchy span, whose shards attribute counts every shard
// the stream ran.
func (f *Feeder) Finish(ctx context.Context) (*Hierarchy, error) {
	sp := obs.StartSpan(ctx, "affinity.hierarchy")
	defer sp.End()
	return f.finish(sp)
}

// finish is Finish recording into the caller's span, so a buffered build
// reports one span covering both its feed and its merge.
func (f *Feeder) finish(sp obs.Span) (*Hierarchy, error) {
	sp.SetAttr("trace_len", int64(f.n))
	sp.SetAttr("wmax", int64(f.wmax))
	if f.err == nil && f.body < len(f.slab) {
		f.dispatchTail()
	}
	sp.SetAttr("shards", int64(len(f.states)))
	if err := f.pool.Wait(); err != nil {
		f.release()
		return nil, err
	}
	h := newHierarchyShellFrom(f.firstOcc, f.occCount, f.order, f.wmax)
	if len(f.states) == 0 {
		return h, nil // empty trace: the shell is the whole answer
	}
	pairs := &f.states[0].pairs
	for _, st := range f.states[1:] {
		pairs.MergeFrom(&st.pairs)
	}
	minW := reduceMinW(pairs, f.occCount, f.wmax, f.arena)
	buildLevels(h, f.wmax, minW)
	f.arena.putMinW(minW)
	f.release()
	return h, nil
}

// Abort discards the stream: it drains in-flight shards and recycles
// their buffers. Call it instead of Finish when the job is canceled.
func (f *Feeder) Abort() {
	_ = f.pool.Wait()
	f.release()
}

func (f *Feeder) release() {
	for _, st := range f.states {
		f.arena.putShard(st)
	}
	f.states = nil
	f.slab = nil
}
