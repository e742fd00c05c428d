package affinity

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/trace"
)

// TestWarmScratchMatchesMapOracle checks the allocation-free epoch-scratch
// warm-up helpers against the map-based oracles at every position of
// several trace shapes, including need values far beyond the alphabet.
func TestWarmScratchMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := [][]int32{
		{},           // empty trace
		{7},          // single occurrence
		{5, 5, 5, 5}, // single symbol repeated
		{0, 1, 2, 3, // strictly increasing: every warm-up hits distinct syms
			4, 5, 6, 7},
		func() []int32 { // random with repeats
			s := make([]int32, 61)
			for i := range s {
				s[i] = int32(rng.Intn(6))
			}
			return s
		}(),
	}
	st := &shardState{}
	for si, syms := range shapes {
		var maxSym int32 = -1
		for _, s := range syms {
			if s > maxSym {
				maxSym = s
			}
		}
		st.prepare(maxSym, 2)
		for _, need := range []int{0, 1, 2, 5, len(syms) + 3} {
			for pos := 0; pos <= len(syms); pos++ {
				if got, want := st.warmBeforeScratch(syms, pos, need), warmBefore(syms, pos, need); got != want {
					t.Fatalf("shape %d: warmBeforeScratch(%d, %d) = %d, oracle %d", si, pos, need, got, want)
				}
				if got, want := st.warmAfterScratch(syms, pos, need), warmAfter(syms, pos, need); got != want {
					t.Fatalf("shape %d: warmAfterScratch(%d, %d) = %d, oracle %d", si, pos, need, got, want)
				}
			}
		}
	}
}

// TestWarmScratchEpochIsolation verifies consecutive warm-ups on one
// pooled shard don't leak "seen" marks into each other: a warm-up that
// touched symbol s must not make a later warm-up skip s.
func TestWarmScratchEpochIsolation(t *testing.T) {
	syms := []int32{4, 4, 4, 4, 4, 4}
	st := &shardState{}
	st.prepare(4, 2)
	// First call marks symbol 4 in its epoch.
	if got := st.warmBeforeScratch(syms, 6, 1); got != 5 {
		t.Fatalf("first warmBeforeScratch = %d, want 5", got)
	}
	// A later call must count symbol 4 afresh, not see the stale mark and
	// walk to position 0.
	if got := st.warmBeforeScratch(syms, 6, 1); got != 5 {
		t.Fatalf("second warmBeforeScratch = %d, want 5 (stale epoch mark leaked)", got)
	}
	if got := st.warmAfterScratch(syms, 0, 1); got != 1 {
		t.Fatalf("warmAfterScratch after warmBeforeScratch = %d, want 1", got)
	}
}

// TestWarmScratchEpochWrap forces the int32 epoch counter through its
// wrap-around re-zeroing and checks warm-ups still match the oracle.
func TestWarmScratchEpochWrap(t *testing.T) {
	syms := []int32{0, 1, 2, 0, 1, 2}
	st := &shardState{}
	st.prepare(2, 2)
	st.epoch = 1<<31 - 2 // next two bumps cross the wrap
	for i := 0; i < 3; i++ {
		if got, want := st.warmBeforeScratch(syms, 6, 3), warmBefore(syms, 6, 3); got != want {
			t.Fatalf("bump %d: warmBeforeScratch = %d, oracle %d", i, got, want)
		}
	}
	if st.epoch <= 0 {
		t.Fatalf("epoch = %d, want positive after wrap", st.epoch)
	}
}

// TestShardBoundaryShortTraces drives the full sharded analysis on traces
// around and below the minimum shard span (minShardSpan*wmax), where
// warm-up spans clamp at position 0 and len(syms): the parallel result
// must stay byte-identical to serial for every worker count.
func TestShardBoundaryShortTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	wmax := 3
	minSpan := minShardSpan * wmax
	lengths := []int{
		0, 1, 2, // degenerate
		minSpan - 1, minSpan, minSpan + 1, // exactly at the chunking floor
		2*minSpan - 1, 2 * minSpan, // first lengths that can split
		5*minSpan + 3,
	}
	for _, n := range lengths {
		syms := make([]int32, n)
		for i := range syms {
			syms[i] = int32(rng.Intn(5))
		}
		tr := trace.New(syms)
		serial := BuildHierarchy(tr, Options{WMax: wmax, Workers: 1})
		for _, workers := range []int{2, 4, 16} {
			par := BuildHierarchy(tr, Options{WMax: wmax, Workers: workers})
			if !reflect.DeepEqual(par.Levels, serial.Levels) {
				t.Fatalf("n=%d workers=%d: hierarchy differs from serial", n, workers)
			}
		}
	}
}

// TestShardBoundaryWarmupSpansWholeTrace picks wmax larger than the
// alphabet so every shard's warm-up wants more distinct symbols than
// exist: warmBefore must clamp to 0 and warmAfter to len(syms), and the
// sharded result must still match serial and the naive oracle.
func TestShardBoundaryWarmupSpansWholeTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	syms := make([]int32, 200)
	for i := range syms {
		syms[i] = int32(rng.Intn(3)) // alphabet 3, wmax 8 below
	}
	tr := trace.New(syms)
	opt := Options{WMax: 8, Workers: 1}
	serial := BuildHierarchy(tr, opt)
	naive := BuildHierarchyNaive(tr, opt)
	for w := 1; w <= opt.WMax; w++ {
		if !reflect.DeepEqual(serial.Partition(w).Groups, naive.Partition(w).Groups) {
			t.Fatalf("w=%d: serial differs from naive oracle", w)
		}
	}
	for _, workers := range []int{2, 7} {
		par := BuildHierarchy(tr, Options{WMax: 8, Workers: workers})
		if !reflect.DeepEqual(par.Levels, serial.Levels) {
			t.Fatalf("workers=%d: hierarchy differs from serial", workers)
		}
	}
}

// TestShardBoundarySingleSymbol covers the single-distinct-symbol trace
// long enough to shard: there are no pairs, so the hierarchy is one
// trivial group at every level, for any worker count.
func TestShardBoundarySingleSymbol(t *testing.T) {
	syms := make([]int32, 100)
	for i := range syms {
		syms[i] = 9
	}
	tr := trace.New(syms)
	for _, workers := range []int{1, 2, 8} {
		h := BuildHierarchy(tr, Options{WMax: 2, Workers: workers})
		if got := h.Sequence(); len(got) != 1 || got[0] != 9 {
			t.Fatalf("workers=%d: sequence = %v, want [9]", workers, got)
		}
	}
}

// TestShardPassBlocksMatchOnePass: a shard longer than passSpan runs its
// stack passes block by block, each block warming up on its own; the
// histograms must equal one pass over the whole shard, on shards that
// start and end inside the trace and blocks that end on its last symbol.
func TestShardPassBlocksMatchOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const wmax = 12
	tt := phasedTrace(rng, 3*passSpan+777, 900, 20).Trimmed()
	n := len(tt.Syms)
	for _, span := range [][2]int{{0, n}, {123, n - 456}, {passSpan - 5, 2*passSpan + 5}} {
		lo, hi := span[0], span[1]
		blocked := &shardState{}
		if err := shardPairHists(context.Background(), blocked, tt.Syms, tt.MaxSym(), wmax, lo, hi); err != nil {
			t.Fatal(err)
		}
		whole := &shardState{}
		whole.prepare(tt.MaxSym(), 2*(wmax+1))
		if err := whole.blockPairHists(context.Background(), tt.Syms, tt.MaxSym(), wmax, lo, hi); err != nil {
			t.Fatal(err)
		}
		if blocked.pairs.Len() != whole.pairs.Len() {
			t.Fatalf("[%d, %d): %d pairs in blocks, %d in one pass", lo, hi, blocked.pairs.Len(), whole.pairs.Len())
		}
		whole.pairs.ForEach(func(key int64, counts []uint32) {
			if got := blocked.pairs.Lookup(key); !reflect.DeepEqual(got, counts) {
				t.Fatalf("[%d, %d) pair %x: blocks %v, one pass %v", lo, hi, key, got, counts)
			}
		})
	}
}
