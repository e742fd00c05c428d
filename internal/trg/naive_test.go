package trg

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/trace"
)

// TestBuildMatchesNaive holds the sharded buffered build and the
// streaming Feeder against the Definition 6 reference on random traces:
// same node order and the same edge weights, for bounded and unbounded
// windows, at several worker counts, chunkings and shard spans.
func TestBuildMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var traces []*trace.Trace
	for i := 0; i < 6; i++ {
		n, alpha := 200+rng.Intn(500), 3+rng.Intn(20)
		syms := make([]int32, n)
		for j := range syms {
			syms[j] = int32(rng.Intn(alpha))
		}
		traces = append(traces, trace.New(syms))
	}
	traces = append(traces, phasedTrace(rng, 900, 120, 6), trace.New([]int32{7}), trace.New(nil))
	arena := &Arena{}
	for ti, tr := range traces {
		for _, window := range []int{0, 1, 2, 5, 16} {
			want := BuildNaive(tr, window)
			check := func(what string, g *Graph) {
				t.Helper()
				if !reflect.DeepEqual(g.Nodes(), want.Nodes()) &&
					!(len(g.Nodes()) == 0 && len(want.Nodes()) == 0) {
					t.Fatalf("trace %d window=%d %s: nodes %v, want %v", ti, window, what, g.Nodes(), want.Nodes())
				}
				if !reflect.DeepEqual(g.Edges(), want.Edges()) {
					t.Fatalf("trace %d window=%d %s: edges differ from the Definition 6 reference", ti, window, what)
				}
			}
			for _, workers := range []int{1, 2, 4} {
				g, err := BuildCtx(context.Background(), tr, window, workers, arena)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("BuildCtx workers=%d", workers), g)
				arena.PutGraph(g)
				for _, span := range []int{1, 20, 64, 1 << 20} {
					for _, chunk := range []int{1, 13, 4096} {
						g := feedGraph(t, tr, window, workers, span, chunk, arena)
						check(fmt.Sprintf("feed workers=%d span=%d chunk=%d", workers, span, chunk), g)
						arena.PutGraph(g)
					}
				}
			}
		}
	}
}
