package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare reads: each end-to-end
// metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads every result file in dir, keyed by workload and
// run kind ("e2e" or "layer"), each list ordered by seed then time.
func loadResults(dir string) (map[string][]resultFile, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]resultFile{}
	for _, n := range names {
		raw, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		key := rf.Provenance.Workload + " e2e"
		if rf.Provenance.Traced {
			key = rf.Provenance.Workload + " layer"
		}
		out[key] = append(out[key], rf)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool {
			if rs[i].Provenance.Seed != rs[j].Provenance.Seed {
				return rs[i].Provenance.Seed < rs[j].Provenance.Seed
			}
			return rs[i].Provenance.Time < rs[j].Provenance.Time
		})
	}
	return out, nil
}

// compareMain compares a parent and a change result set made of
// alternating runs with the same seeds. Pairs are matched by seed.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("layoutbench compare", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "directory of the parent commit's result files")
	changeDir := fs.String("change", "", "directory of the change's result files")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parentDir == "" || *changeDir == "" {
		fmt.Fprintln(os.Stderr, "layoutbench compare: need -parent and -change")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layoutbench compare:", err)
		return 1
	}
	parent, err := loadResults(*parentDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layoutbench compare:", err)
		return 1
	}
	change, err := loadResults(*changeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layoutbench compare:", err)
		return 1
	}
	type metric struct {
		name, better string
		bound        float64
	}
	var e2e, layer []metric
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metric{m.Name, m.Better, m.Bound})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metric{m.Name, m.Better, 0})
	}
	keys := make([]string, 0, len(parent))
	for k := range parent {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	regressions := 0
	for _, key := range keys {
		ps, cs := parent[key], change[key]
		if len(cs) == 0 {
			fmt.Fprintf(w, "%s: no change runs\n", key)
			continue
		}
		pairs := pairBySeed(ps, cs)
		fmt.Fprintf(w, "%s: %d parent runs, %d change runs, %d seed-matched pairs\n", key, len(ps), len(cs), len(pairs))
		fmt.Fprintf(w, "  %-24s %-29s %-29s %-7s %-5s %-6s %s\n", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "≥9/10", "Δ>IQR", "verdict")
		ms := e2e
		if strings.HasSuffix(key, " layer") {
			ms = layer
		}
		for _, m := range ms {
			pv, cv := values(ps, m.name), values(cs, m.name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			p1, p2, p3 := quartiles(pv)
			c1, c2, c3 := quartiles(cv)
			better := func(c, p float64) bool {
				if m.better == "higher" {
					return c > p
				}
				return c < p
			}
			wins, n := 0, 0
			for _, pr := range pairs {
				a, okA := pr[0].Line.Metrics[m.name]
				b, okB := pr[1].Line.Metrics[m.name]
				if !okA || !okB {
					continue
				}
				n++
				if better(b.Value, a.Value) {
					wins++
				}
			}
			share := float64(wins) / float64(max(n, 1))
			differ := abs(c2-p2) > p3-p1
			verdict := "no change"
			switch {
			case m.name == "job_tail_ms" && !samePct(ps, cs):
				verdict = "unresolved (runs report different tail percentiles)"
			case share >= 0.9 && differ && better(c2, p2):
				verdict = "gain"
			case m.bound > 0 && (p3-p1)/abs(p2) > m.bound && !allBetter(cv, pv, better):
				verdict = "unresolved (spread exceeds bound)"
			case m.bound > 0 && worseBy(c2, p2, m.better) > m.bound:
				verdict = fmt.Sprintf("REGRESSION (%.1f%% worse, bound %.0f%%)", 100*worseBy(c2, p2, m.better), 100*m.bound)
				regressions++
			}
			fmt.Fprintf(w, "  %-24s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g %3d/%-3d %-5v %-6v %s\n",
				m.name, p1, p2, p3, c1, c2, c3, wins, n, share >= 0.9, differ, verdict)
		}
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

func pairBySeed(ps, cs []resultFile) [][2]resultFile {
	bySeed := map[int64][]resultFile{}
	for _, c := range cs {
		bySeed[c.Provenance.Seed] = append(bySeed[c.Provenance.Seed], c)
	}
	var out [][2]resultFile
	for _, p := range ps {
		q := bySeed[p.Provenance.Seed]
		if len(q) == 0 {
			continue
		}
		out = append(out, [2]resultFile{p, q[0]})
		bySeed[p.Provenance.Seed] = q[1:]
	}
	return out
}

func values(rs []resultFile, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Line.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// worseBy is the share by which c is worse than p (negative if better).
func worseBy(c, p float64, better string) float64 {
	if p == 0 {
		return 0
	}
	if better == "higher" {
		return (p - c) / abs(p)
	}
	return (c - p) / abs(p)
}

func allBetter(cv, pv []float64, better func(c, p float64) bool) bool {
	for _, c := range cv {
		for _, p := range pv {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}

// samePct reports whether every run's job_tail_ms was taken at the same
// percentile, as recorded in its result file.
func samePct(ps, cs []resultFile) bool {
	pct := map[float64]bool{}
	for _, r := range append(slices.Clone(ps), cs...) {
		pct[r.Extra["job_tail_pct"].Value] = true
	}
	return len(pct) == 1
}
