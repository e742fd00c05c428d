package trg

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/obs"
	"codelayout/internal/trace"
)

func feedGraph(t *testing.T, tr *trace.Trace, windowBlocks, workers, span, chunk int, arena *Arena) *Graph {
	t.Helper()
	f := NewFeeder(context.Background(), windowBlocks, workers, span, arena)
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
	g, err := f.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func phasedTrace(rng *rand.Rand, n, phaseLen, alpha int) *trace.Trace {
	syms := make([]int32, n)
	for i := range syms {
		phase := (i / phaseLen) % 8
		if rng.Float64() < 0.1 && phase > 0 {
			phase--
		}
		syms[i] = int32(phase*alpha + rng.Intn(alpha))
	}
	return trace.New(syms)
}

// TestFeederMatchesBuffered is the streamed-vs-buffered oracle for the
// TRG construction: feeding a trace chunk by chunk, across shard spans
// small enough to force many arrival-cut shards, must yield the same
// node order, edge set, and reduced sequence as the buffered build, at
// Workers=1 and Workers=N.
func TestFeederMatchesBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	traces := []*trace.Trace{
		phasedTrace(rng, 3000, 400, 10),
		phasedTrace(rng, 997, 100, 5),
		trace.New(func() []int32 {
			s := make([]int32, 1500)
			for i := range s {
				s[i] = int32(rng.Intn(9))
			}
			return s
		}()),
		trace.New([]int32{3}),
		trace.New(nil),
	}
	arena := &Arena{}
	for ti, tr := range traces {
		for _, window := range []int{2, 8, 64} {
			buffered := BuildWorkers(tr, window, 1)
			for _, workers := range []int{1, 4} {
				for _, span := range []int{150, 1 << 20} {
					for _, chunk := range []int{1, 37, 1024} {
						g := feedGraph(t, tr, window, workers, span, chunk, arena)
						if !reflect.DeepEqual(g.Nodes(), buffered.Nodes()) &&
							!(len(g.Nodes()) == 0 && len(buffered.Nodes()) == 0) {
							t.Fatalf("trace %d window=%d workers=%d span=%d chunk=%d: node order differs",
								ti, window, workers, span, chunk)
						}
						if !reflect.DeepEqual(g.Edges(), buffered.Edges()) {
							t.Fatalf("trace %d window=%d workers=%d span=%d chunk=%d: edges differ",
								ti, window, workers, span, chunk)
						}
						if !reflect.DeepEqual(Reduce(g, 16), Reduce(buffered, 16)) {
							t.Fatalf("trace %d window=%d workers=%d span=%d chunk=%d: reduced sequence differs",
								ti, window, workers, span, chunk)
						}
						arena.PutGraph(g)
					}
				}
			}
		}
	}
}

// TestFeederShortStreamUsesWorkers: a stream shorter than the default
// shard span reaches Finish undispatched, and Finish cuts it into one
// shard per worker, as the trg.build span's shards attribute shows. The
// graph equals the Definition 6 reference either way.
func TestFeederShortStreamUsesWorkers(t *testing.T) {
	const window = 16
	tr := phasedTrace(rand.New(rand.NewSource(15)), 1500, 200, 8)
	want := BuildNaive(tr, window)
	for _, workers := range []int{1, 2} {
		rec := obs.NewRecorder(4)
		ctx := obs.WithRecorder(context.Background(), rec)
		f := NewFeeder(ctx, window, workers, 0, nil)
		for syms := tr.Syms; len(syms) > 0; syms = syms[min(256, len(syms)):] {
			if err := f.Feed(syms[:min(256, len(syms))]); err != nil {
				t.Fatal(err)
			}
		}
		g, err := f.Finish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Nodes(), want.Nodes()) || !reflect.DeepEqual(g.Edges(), want.Edges()) {
			t.Fatalf("workers=%d: streamed graph differs from the Definition 6 reference", workers)
		}
		spans, _ := rec.Snapshot()
		attrs := map[string]int64{}
		for _, a := range spans[0].Attrs[:spans[0].NAttr] {
			attrs[a.Key] = a.Value
		}
		if spans[0].Name != "trg.build" || attrs["shards"] != int64(workers) || attrs["nodes"] != int64(len(want.Nodes())) {
			t.Errorf("workers=%d: span %s attrs %v, want trg.build with shards=%d nodes=%d",
				workers, spans[0].Name, attrs, workers, len(want.Nodes()))
		}
	}
}

// TestFeederUnboundedWindowDegrades: windowBlocks <= 0 cannot stream (the
// warm span is the whole history); the feeder must still produce the
// buffered result by deferring the single shard to Finish.
func TestFeederUnboundedWindowDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := phasedTrace(rng, 800, 100, 6)
	buffered := BuildWorkers(tr, 0, 1)
	g := feedGraph(t, tr, 0, 4, 64, 100, nil)
	if !reflect.DeepEqual(g.Edges(), buffered.Edges()) {
		t.Fatal("unbounded-window feeder differs from buffered build")
	}
	if !reflect.DeepEqual(g.Nodes(), buffered.Nodes()) {
		t.Fatal("unbounded-window feeder node order differs from buffered build")
	}
}

// TestFeederUntrimmedInput: trimming happens across chunk boundaries,
// matching the buffered path's up-front Trimmed().
func TestFeederUntrimmedInput(t *testing.T) {
	syms := []int32{4, 4, 4, 1, 1, 2, 2, 2, 2, 1, 4, 4}
	tr := trace.New(syms)
	buffered := BuildWorkers(tr, 3, 1)
	for chunk := 1; chunk <= len(syms); chunk++ {
		g := feedGraph(t, tr, 3, 2, 2, chunk, nil)
		if !reflect.DeepEqual(g.Edges(), buffered.Edges()) {
			t.Fatalf("chunk=%d: untrimmed streamed graph differs", chunk)
		}
	}
}

// TestFeederCancellation: canceling the feeder's context surfaces an
// error instead of wedging.
func TestFeederCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := NewFeeder(ctx, 8, 4, 64, nil)
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

// TestBuildCtxCancel: a canceled buffered build returns ctx's error and
// leaves the arena serving correct builds.
func TestBuildCtxCancel(t *testing.T) {
	tr := phasedTrace(rand.New(rand.NewSource(12)), 3000, 300, 10)
	want := BuildNaive(tr, 8)
	arena := &Arena{}
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := BuildCtx(ctx, tr, 8, workers, arena); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: canceled build err = %v, want context.Canceled", workers, err)
		}
		g, err := BuildCtx(context.Background(), tr, 8, workers, arena)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Nodes(), want.Nodes()) || !reflect.DeepEqual(g.Edges(), want.Edges()) {
			t.Fatalf("workers=%d: arena corrupted by the canceled build", workers)
		}
		arena.PutGraph(g)
	}
}
