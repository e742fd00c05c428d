package affinity

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/interp"
	"codelayout/internal/progen"
	"codelayout/internal/trace"
)

// TestBuildLevelsMatchesNaive holds the indexed level merge to
// naiveLevels, Algorithm 1's greedy merge as stated, on the same
// minimal-window tables: those of random traces and of basic-block
// windows of real profiles, the inputs of bb-affinity jobs.
func TestBuildLevelsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	traces := map[string]*trace.Trace{
		"phased":  phasedTrace(rng, 5000, 300, 16),
		"uniform": phasedTrace(rng, 3000, 3000, 40),
	}
	for _, name := range []string{"429.mcf", "471.omnetpp"} {
		spec, err := progen.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := progen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := interp.Run(prog, interp.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		syms := res.Blocks.Trimmed().Syms
		for i, lo := range []int{0, len(syms) / 2} {
			traces[fmt.Sprintf("%s#%d", name, i)] = trace.New(syms[lo:min(lo+20000, len(syms))])
		}
	}
	for name, tr := range traces {
		tt := tr.Trimmed()
		for _, wmax := range []int{5, DefaultWMax} {
			st := &shardState{}
			if err := shardPairHists(context.Background(), st, tt.Syms, tt.MaxSym(), wmax, 0, len(tt.Syms)); err != nil {
				t.Fatal(err)
			}
			want := newHierarchyShell(tt, wmax)
			minW := reduceMinW(&st.pairs, want.occCount, wmax, nil)
			naiveLevels(want, wmax, minW)
			got := newHierarchyShell(tt, wmax)
			buildLevels(got, wmax, minW)
			if !reflect.DeepEqual(got.Levels, want.Levels) {
				t.Fatalf("%s wmax=%d: indexed levels differ from Algorithm 1's merge", name, wmax)
			}
		}
	}
}
