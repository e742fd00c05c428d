package trg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/interp"
	"codelayout/internal/progen"
	"codelayout/internal/trace"
)

// randomGraph returns a graph of n nodes with sparse, shuffled node IDs
// (so dense indices, node order and ID order all differ), edges present
// with probability density, and weights drawn from [1, maxW] — a small
// maxW makes weight ties, and so the pairKey tie-break, common. Every
// fifth node stays isolated.
func randomGraph(rng *rand.Rand, n int, density float64, maxW int64) *Graph {
	g := NewGraph()
	ids := rng.Perm(4 * n)[:n]
	for _, id := range ids {
		g.AddNode(int32(id))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i%5 == 4 || j%5 == 4 || rng.Float64() >= density {
				continue
			}
			g.AddWeight(int32(ids[i]), int32(ids[j]), 1+rng.Int63n(maxW))
		}
	}
	return g
}

// progenWindowLen is the bb-trg upload of layoutbench's fresh-bb
// workload: a 15k-reference window of a program's basic-block profile.
const progenWindowLen = 15000

// progenGraphs builds the bb-trg graphs of perProg windows spread over
// one 429.mcf and one 471.omnetpp profile, with the default 64-byte
// block window.
func progenGraphs(tb testing.TB, perProg int) []*Graph {
	tb.Helper()
	var out []*Graph
	for _, name := range []string{"429.mcf", "471.omnetpp"} {
		spec, err := progen.SpecByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		prog, err := progen.Generate(spec)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := interp.Run(prog, interp.Options{Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		syms := res.Blocks.Trimmed().Syms
		if len(syms) < progenWindowLen {
			tb.Fatalf("%s: profile has %d references, want at least %d", name, len(syms), progenWindowLen)
		}
		for i := 0; i < perProg; i++ {
			lo := i * (len(syms) - progenWindowLen) / perProg
			window := trace.New(syms[lo : lo+progenWindowLen])
			out = append(out, BuildWorkers(window, DefaultParams(64).WindowBlocks(), 1))
		}
	}
	return out
}

// TestReduceMatchesLiteral holds the flat reducer to the literal
// Algorithm 2 oracle: graphs with fewer and more nodes than K (so both
// first placements and merges with steps 19-21 run), tie-heavy and
// tie-free weights, and the bb-trg graphs of real profiles.
func TestReduceMatchesLiteral(t *testing.T) {
	rng := rand.New(rand.NewSource(20140901))
	type input struct {
		name string
		g    *Graph
	}
	var inputs []input
	// Every fifth node is isolated, so 420 nodes leave 336 with edges:
	// more than the 256 slots of the largest K.
	for i, n := range []int{1, 2, 3, 7, 12, 40, 90, 420} {
		for _, density := range []float64{0.1, 0.5, 1} {
			for _, maxW := range []int64{3, 1 << 20} {
				inputs = append(inputs, input{
					fmt.Sprintf("random#%d n=%d density=%v maxW=%d", i, n, density, maxW),
					randomGraph(rng, n, density, maxW),
				})
			}
		}
	}
	inputs = append(inputs, input{"empty", NewGraph()})
	for i, g := range progenGraphs(t, 2) {
		inputs = append(inputs, input{fmt.Sprintf("progen#%d", i), g})
	}
	for _, in := range inputs {
		for _, k := range []int{1, 2, 3, 8, 64, 256} {
			if got, want := Reduce(in.g, k), reduceLiteral(in.g, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (%d nodes, %d edges) k=%d: Reduce differs from the literal reducer\n got %v\nwant %v",
					in.name, len(in.g.Nodes()), in.g.NumEdges(), k, got, want)
			}
		}
	}
}

// BenchmarkReduceProgen reduces real bb-trg graphs — 15k-reference
// windows of 429.mcf and 471.omnetpp, as fresh bb-trg jobs upload —
// with the default slot count. Its allocs/op is gated, so per-push
// boxing cannot come back.
func BenchmarkReduceProgen(b *testing.B) {
	graphs := progenGraphs(b, 3)
	k := DefaultParams(64).Slots()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reduce(graphs[i%len(graphs)], k)
	}
}
