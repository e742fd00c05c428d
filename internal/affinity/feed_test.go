package affinity

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/obs"
	"codelayout/internal/trace"
)

// feedInChunks drives a Feeder cutting shards of the given span with the
// trace split at the given chunk size and returns the finished hierarchy.
func feedInChunks(t *testing.T, tr *trace.Trace, opt Options, span, chunk int) *Hierarchy {
	t.Helper()
	f := newFeeder(context.Background(), opt, span)
	syms := tr.Syms
	for len(syms) > 0 {
		c := chunk
		if c > len(syms) {
			c = len(syms)
		}
		if err := f.Feed(syms[:c]); err != nil {
			t.Fatal(err)
		}
		syms = syms[c:]
	}
	h, err := f.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestFeederMatchesBuffered is the streamed-vs-buffered oracle: feeding
// a trace chunk by chunk — across shard spans small enough to force many
// arrival-cut shards — must yield a hierarchy byte-identical to the
// buffered build, at Workers=1 and Workers=N.
func TestFeederMatchesBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	traces := []*trace.Trace{
		phasedTrace(rng, 4000, 500, 12),
		phasedTrace(rng, 997, 100, 5),
		trace.New(func() []int32 { // uniform random, small alphabet
			s := make([]int32, 2000)
			for i := range s {
				s[i] = int32(rng.Intn(9))
			}
			return s
		}()),
		fig1Trace(),
		trace.New([]int32{3}),
		trace.New(nil),
	}
	arena := &Arena{}
	for ti, tr := range traces {
		for _, wmax := range []int{2, 5, DefaultWMax} {
			buffered := BuildHierarchy(tr, Options{WMax: wmax, Workers: 1})
			for _, workers := range []int{1, 4} {
				for _, span := range []int{150, 1 << 20} {
					opt := Options{WMax: wmax, Workers: workers, Arena: arena}
					for _, chunk := range []int{1, 37, 1024} {
						h := feedInChunks(t, tr, opt, span, chunk)
						if !reflect.DeepEqual(h.Levels, buffered.Levels) {
							t.Fatalf("trace %d wmax=%d workers=%d span=%d chunk=%d: streamed hierarchy differs",
								ti, wmax, workers, span, chunk)
						}
						if !reflect.DeepEqual(h.Sequence(), buffered.Sequence()) {
							t.Fatalf("trace %d wmax=%d workers=%d span=%d chunk=%d: streamed sequence differs",
								ti, wmax, workers, span, chunk)
						}
					}
				}
			}
		}
	}
}

// TestFeederShortStreamUsesWorkers: a stream shorter than the shard span
// reaches Finish undispatched, and Finish cuts it into one shard per
// worker, as the affinity.hierarchy span's shards attribute shows. The
// hierarchy is unchanged: equal to the Workers=1 stream, and on a
// prefix short enough for the quadratic oracle, to BuildHierarchyNaive.
func TestFeederShortStreamUsesWorkers(t *testing.T) {
	tr := phasedTrace(rand.New(rand.NewSource(15)), 6000, 400, 12)
	prefix := trace.New(tr.Syms[:700])
	cases := []struct {
		name string
		tr   *trace.Trace
		want *Hierarchy
	}{
		{"whole", tr, BuildHierarchy(tr, Options{Workers: 1})},
		{"prefix", prefix, BuildHierarchyNaive(prefix, Options{})},
	}
	for _, c := range cases {
		if n := c.tr.Trimmed().Len(); n >= defaultFeedShardSpan {
			t.Fatalf("%s: %d trimmed references, want fewer than the shard span", c.name, n)
		}
		for _, workers := range []int{1, 2} {
			rec := obs.NewRecorder(4)
			ctx := obs.WithRecorder(context.Background(), rec)
			f := NewFeeder(ctx, Options{Workers: workers})
			for syms := c.tr.Syms; len(syms) > 0; syms = syms[min(256, len(syms)):] {
				if err := f.Feed(syms[:min(256, len(syms))]); err != nil {
					t.Fatal(err)
				}
			}
			h, err := f.Finish(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(h.Levels, c.want.Levels) {
				t.Fatalf("%s workers=%d: streamed hierarchy differs", c.name, workers)
			}
			spans, _ := rec.Snapshot()
			if got := spanAttr(spans[0], "shards"); got != int64(workers) {
				t.Errorf("%s workers=%d: span shards = %d, want %d", c.name, workers, got, workers)
			}
		}
	}
}

// spanAttr returns the value of the span's attribute key, or -1.
func spanAttr(sp obs.SpanData, key string) int64 {
	for _, a := range sp.Attrs[:sp.NAttr] {
		if a.Key == key {
			return a.Value
		}
	}
	return -1
}

// TestFeederUntrimmedInput: the feeder trims across chunk boundaries —
// a run of one symbol split over many Feed calls collapses exactly as
// the buffered path's up-front Trimmed() does.
func TestFeederUntrimmedInput(t *testing.T) {
	syms := []int32{4, 4, 4, 1, 1, 2, 2, 2, 2, 1, 4, 4}
	tr := trace.New(syms)
	buffered := BuildHierarchy(tr, Options{WMax: 3, Workers: 1})
	for chunk := 1; chunk <= len(syms); chunk++ {
		h := feedInChunks(t, tr, Options{WMax: 3, Workers: 2}, 2, chunk)
		if !reflect.DeepEqual(h.Levels, buffered.Levels) {
			t.Fatalf("chunk=%d: untrimmed streamed hierarchy differs", chunk)
		}
	}
}

// TestFeederLowDiversityTail: a trace whose tail never produces wmax
// distinct symbols after a cut leaves the cut pending until Finish; the
// result must still match the buffered build.
func TestFeederLowDiversityTail(t *testing.T) {
	syms := make([]int32, 0, 1200)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		syms = append(syms, int32(rng.Intn(30)))
	}
	for i := 0; i < 600; i++ { // two-symbol tail: never 5 distinct again
		syms = append(syms, int32(i%2))
	}
	tr := trace.New(syms)
	buffered := BuildHierarchy(tr, Options{WMax: 5, Workers: 1})
	h := feedInChunks(t, tr, Options{WMax: 5, Workers: 4}, 100, 64)
	if !reflect.DeepEqual(h.Levels, buffered.Levels) {
		t.Fatal("low-diversity tail: streamed hierarchy differs from buffered")
	}
}

// TestFeederAbort: aborting mid-stream must drain cleanly (no panic, no
// deadlock) and leave the arena reusable.
func TestFeederAbort(t *testing.T) {
	arena := &Arena{}
	rng := rand.New(rand.NewSource(5))
	f := newFeeder(context.Background(), Options{WMax: 4, Workers: 4, Arena: arena}, 64)
	chunk := make([]int32, 256)
	for i := 0; i < 8; i++ {
		for j := range chunk {
			chunk[j] = int32(rng.Intn(40))
		}
		if err := f.Feed(chunk); err != nil {
			t.Fatal(err)
		}
	}
	f.Abort()
	// The arena still serves a correct buffered build afterwards.
	tr := phasedTrace(rng, 1000, 100, 8)
	a := BuildHierarchy(tr, Options{WMax: 4, Workers: 4, Arena: arena})
	b := BuildHierarchy(tr, Options{WMax: 4, Workers: 1})
	if !reflect.DeepEqual(a.Levels, b.Levels) {
		t.Fatal("arena corrupted by aborted feeder")
	}
}

// TestFeederCancellation: canceling the feeder's context surfaces the
// error from Feed or Finish instead of wedging.
func TestFeederCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := newFeeder(ctx, Options{WMax: 4, Workers: 4}, 64)
	cancel()
	chunk := make([]int32, 4096)
	for i := range chunk {
		chunk[i] = int32(i % 100)
	}
	var err error
	for i := 0; i < 64 && err == nil; i++ {
		err = f.Feed(chunk)
	}
	if err == nil {
		_, err = f.Finish(context.Background())
	}
	if err == nil {
		t.Fatal("canceled feeder reported no error")
	}
	f.Abort()
}

// TestBuildHierarchyCtxSpanAndCancel: a buffered build records exactly
// one affinity.hierarchy span covering its feed and merge, and a canceled
// build returns ctx's error and leaves the arena serving correct builds.
func TestBuildHierarchyCtxSpanAndCancel(t *testing.T) {
	tr := phasedTrace(rand.New(rand.NewSource(11)), 3000, 300, 10)
	want := BuildHierarchyNaive(tr, Options{WMax: 6})
	arena := &Arena{}
	for _, workers := range []int{1, 4} {
		opt := Options{WMax: 6, Workers: workers, Arena: arena}
		rec := obs.NewRecorder(16)
		h, err := BuildHierarchyCtx(obs.WithRecorder(context.Background(), rec), tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h.Levels, want.Levels) {
			t.Fatalf("workers=%d: hierarchy differs from the naive reference", workers)
		}
		spans, _ := rec.Snapshot()
		if len(spans) != 1 || spans[0].Name != "affinity.hierarchy" || spans[0].Dur < 0 {
			t.Fatalf("workers=%d: spans = %+v, want one ended affinity.hierarchy span", workers, spans)
		}
		attrs := map[string]int64{}
		for _, a := range spans[0].Attrs[:spans[0].NAttr] {
			attrs[a.Key] = a.Value
		}
		if attrs["trace_len"] != int64(tr.Trimmed().Len()) || attrs["wmax"] != 6 || attrs["shards"] != int64(workers) {
			t.Errorf("workers=%d: span attrs = %v, want trace_len=%d wmax=6 shards=%d", workers, attrs, tr.Trimmed().Len(), workers)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := BuildHierarchyCtx(ctx, tr, opt); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: canceled build err = %v, want context.Canceled", workers, err)
		}
		if h := BuildHierarchy(tr, opt); !reflect.DeepEqual(h.Levels, want.Levels) {
			t.Fatalf("workers=%d: arena corrupted by the canceled build", workers)
		}
	}
}

// BenchmarkStreamFeed measures the feeder end-to-end on a phased trace,
// arena-recycled: the steady-state target is allocation-light dispatch
// (slab copies and pooled shard states only).
func BenchmarkStreamFeed(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	tr := phasedTrace(rng, 1<<17, 4096, 48)
	arena := &Arena{}
	opt := Options{WMax: DefaultWMax, Workers: 4, Arena: arena}
	// Warm the arena pools once.
	feedBench(b, tr, opt)
	b.SetBytes(int64(4 * len(tr.Syms)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feedBench(b, tr, opt)
	}
}

// feedBench streams tr in 8192-occurrence chunks through a feeder cutting
// shards of 1<<14 occurrences.
func feedBench(b *testing.B, tr *trace.Trace, opt Options) *Hierarchy {
	f := newFeeder(context.Background(), opt, 1<<14)
	syms := tr.Syms
	for len(syms) > 0 {
		c := 8192
		if c > len(syms) {
			c = len(syms)
		}
		if err := f.Feed(syms[:c]); err != nil {
			b.Fatal(err)
		}
		syms = syms[c:]
	}
	h, err := f.Finish(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return h
}
