package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"codelayout/internal/core"
)

// TestMetricsMatchBenchmarkJSON holds the metric and workload names and
// units printed here to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		benchSpec
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, BENCHMARK.json %v", workloadNames, names)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, BENCHMARK.json %d", len(endToEnd), len(spec.EndToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("end-to-end %d: %+v, BENCHMARK.json %+v", i, d, m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, BENCHMARK.json %d", len(perLayer), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer %d: %+v, BENCHMARK.json %+v", i, d, m)
		}
	}
}

// TestRunPrintsEveryMetric runs every workload briefly, untraced and
// traced, and checks the oracles passed and every metric printed with
// its unit: in the last line, and by name in the report above it.
func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloadNames {
		for _, traced := range []int{0, 1} {
			t.Run(wl+"/trace"+strconv.Itoa(traced), func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", wl, "--seed", "3", "--seconds", "2",
					"--trace", strconv.Itoa(traced), "--out", t.TempDir()}
				if code := runMain(args, &out); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d:\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := endToEnd
				printed := append(slices.Clone(endToEnd), printedOnly[4:]...)
				if wl == wlClusterReuse {
					printed = append(printed, printedOnly[:4]...)
				}
				if traced == 1 {
					want, printed = perLayer, perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics in the last line, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: %+v (present %v), want unit %s", d.Name, v, ok, d.Unit)
					}
				}
				report := strings.Join(lines[:len(lines)-1], "\n")
				for _, d := range printed {
					if !strings.Contains(report, d.Name+" ") || !strings.Contains(report, " "+d.Unit) {
						t.Errorf("report does not print %s with its unit %s", d.Name, d.Unit)
					}
				}
			})
		}
	}
}

// TestOracleCatchesWrongSequence feeds the serial-pipeline oracle a
// result whose layout order was tampered with.
func TestOracleCatchesWrongSequence(t *testing.T) {
	prof, err := newProfiles(wlFreshBB, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInput(bbProgs[0], "func-trg", prof.traces[bbProgs[0]][0][:20000])
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := core.OptimizerByName(in.opt)
	_, rep, err := opt.Optimize(&core.Profile{Prog: prof.progs[in.prog], Blocks: in.tr})
	if err != nil {
		t.Fatal(err)
	}
	var res resultDoc
	res.Report.Sequence = slices.Clone(rep.Sequence)
	res.Report.Sequence[0], res.Report.Sequence[1] = res.Report.Sequence[1], res.Report.Sequence[0]
	if err := checkResult(prof, in, &res); err == nil {
		t.Fatal("oracle accepted a swapped sequence")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}
