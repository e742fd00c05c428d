package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"codelayout/internal/affinity"
	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/layout"
	"codelayout/internal/schedule"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
)

// resultDoc is the part of layoutd's Result the oracles check.
type resultDoc struct {
	Digest    string `json:"digest"`
	Prog      string `json:"prog"`
	Optimizer string `json:"optimizer"`
	Report    struct {
		Sequence []int32
	} `json:"report"`
	MissBefore    float64 `json:"missBefore"`
	MissAfter     float64 `json:"missAfter"`
	MissReduction float64 `json:"missReduction"`
	ElapsedMS     float64 `json:"elapsedMS"`
}

type pairSide struct {
	Digest        string  `json:"digest"`
	MissSolo      float64 `json:"missSolo"`
	MissCorun     float64 `json:"missCorun"`
	Defensiveness float64 `json:"defensiveness"`
	Politeness    float64 `json:"politeness"`
}

type corunDoc struct {
	A pairSide `json:"a"`
	B pairSide `json:"b"`
}

type scheduleDoc struct {
	Matrix    [][]float64        `json:"matrix"`
	Placement schedule.Placement `json:"placement"`
}

// naiveChecks bounds the func-affinity jobs per run whose analysis is
// also held against affinity.BuildHierarchyNaive, and naivePrefix the
// references it sees: the naive build is quadratic (about 9 s on one
// whole function-level profile), so it checks the efficient kernel on
// the first naivePrefix references of the job's pruned trace.
const (
	naiveChecks = 3
	naivePrefix = 2000
)

// checker runs the oracles after the timed phase. Every mismatch is
// recorded against its operation and counted in error_rate.
type checker struct {
	e        *env
	mu       sync.Mutex
	failures map[*op]string
	naive    int
}

func newChecker(e *env) *checker { return &checker{e: e, failures: map[*op]string{}} }

func (c *checker) fail(o *op, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.failures[o]; !ok {
		c.failures[o] = fmt.Sprintf(format, args...)
	}
}

// check verifies every successful operation, nproc at a time.
func (c *checker) check(ops []*op) {
	var naive []*op
	for _, o := range ops {
		if o.err == nil && o.kind == kindJob && o.in.opt == "func-affinity" && len(naive) < naiveChecks {
			naive = append(naive, o)
		}
	}
	work := make(chan *op)
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range work {
				c.checkOp(o)
			}
		}()
	}
	for _, o := range ops {
		if o.err == nil {
			work <- o
		}
	}
	close(work)
	wg.Wait()
	for _, o := range naive {
		c.checkNaive(o)
	}
}

func (c *checker) checkOp(o *op) {
	switch o.kind {
	case kindJob:
		var res resultDoc
		if err := json.Unmarshal(o.view.Result, &res); err != nil {
			c.fail(o, "decoding result: %v", err)
			return
		}
		in, err := c.e.load(o.in)
		if err == nil {
			err = checkResult(c.e.prof, in, &res)
		}
		if err != nil {
			c.fail(o, "%s/%s: %v", o.in.prog, o.in.opt, err)
		}
	case kindHit, kindRead:
		raw := o.raw
		if o.kind == kindHit {
			raw = o.view.Result
		}
		got, err := compactJSON(raw)
		if err != nil {
			c.fail(o, "%s: decoding result: %v", o.kind, err)
			return
		}
		if !bytes.Equal(got, c.e.seeds[o.seed].result) {
			c.fail(o, "%s of seed %d on node %d: result bytes differ from the seeding job's", o.kind, o.seed, o.node)
		}
	case kindCorun:
		var doc corunDoc
		if err := json.Unmarshal(o.view.Corun, &doc); err != nil {
			c.fail(o, "decoding co-run: %v", err)
			return
		}
		if err := checkCorun(c.e, o.pair, &doc); err != nil {
			c.fail(o, "co-run %v: %v", o.pair, err)
		}
	case kindSchedule:
		var doc scheduleDoc
		if err := json.Unmarshal(o.view.Schedule, &doc); err != nil {
			c.fail(o, "decoding schedule: %v", err)
			return
		}
		topo := schedule.Topology{Domains: scheduleTopology["domains"], SlotsPerDomain: scheduleTopology["slotsPerDomain"]}
		want := schedule.BruteForce(doc.Matrix, topo).Cost
		if math.Abs(want-doc.Placement.Cost) > 1e-9*math.Max(1, math.Abs(want)) {
			c.fail(o, "schedule cost %v, brute force %v", doc.Placement.Cost, want)
		}
	}
}

// checkResult holds one optimization result against a serial
// core.Optimize (Workers=1) of the same profile and against solo
// simulations of the original and optimized layouts.
func checkResult(prof *profiles, in *jobInput, res *resultDoc) error {
	prog := prof.progs[in.prog]
	opt, err := core.OptimizerByName(in.opt)
	if err != nil {
		return err
	}
	opt.Workers = 1
	l, rep, err := opt.Optimize(&core.Profile{Prog: prog, Blocks: in.tr})
	if err != nil {
		return fmt.Errorf("serial optimize: %w", err)
	}
	if !slices.Equal(rep.Sequence, res.Report.Sequence) {
		return fmt.Errorf("sequence differs from serial core.Optimize")
	}
	cfg := cachesim.L1IDefault
	before := cachesim.SimulateSolo(cfg, layout.NewReplayer(layout.Original(prog), in.tr, cfg.LineBytes, false)).Stats.MissRatio()
	after := cachesim.SimulateSolo(cfg, layout.NewReplayer(l, in.tr, cfg.LineBytes, false)).Stats.MissRatio()
	if before != res.MissBefore || after != res.MissAfter {
		return fmt.Errorf("miss ratios %v/%v, simulation says %v/%v", res.MissBefore, res.MissAfter, before, after)
	}
	return nil
}

func (c *checker) checkNaive(o *op) {
	in, err := c.e.load(o.in)
	if err != nil {
		c.fail(o, "rebuilding input: %v", err)
		return
	}
	prog := c.e.prof.progs[in.prog]
	pruned, _ := trace.FuncTrace(prog, in.tr).PruneTopN(core.DefaultPruneTopN)
	syms := pruned.Trimmed().Syms
	prefix := trace.New(syms[:min(naivePrefix, len(syms))])
	got := affinity.BuildHierarchy(prefix, affinity.Options{Workers: 1}).Sequence()
	want := affinity.BuildHierarchyNaive(prefix, affinity.Options{}).Sequence()
	if !slices.Equal(got, want) {
		c.fail(o, "func-affinity order differs from BuildHierarchyNaive on %s", o.in.prog)
	}
	c.mu.Lock()
	c.naive++
	c.mu.Unlock()
}

// checkCorun replays one pair through cachesim.SimulateCorun the way the
// pair document defines its numbers.
func checkCorun(e *env, pair [2]int, doc *corunDoc) error {
	a, b := e.seeds[pair[0]], e.seeds[pair[1]]
	if b.digest < a.digest {
		a, b = b, a
	}
	if doc.A.Digest != a.digest || doc.B.Digest != b.digest {
		return fmt.Errorf("document names digests %.12s/%.12s", doc.A.Digest, doc.B.Digest)
	}
	type sideIn struct {
		tr        *trace.Trace
		base, opt *layout.Layout
	}
	side := func(s *seeded) (sideIn, error) {
		prog := e.prof.progs[s.in.prog]
		var res resultDoc
		if err := json.Unmarshal(s.result, &res); err != nil {
			return sideIn{}, err
		}
		l, err := core.LayoutFromSequence(prog, s.in.opt, res.Report.Sequence)
		return sideIn{tr: s.in.tr, base: layout.Original(prog), opt: l}, err
	}
	sa, err := side(a)
	if err != nil {
		return err
	}
	sb, err := side(b)
	if err != nil {
		return err
	}
	cfg := cachesim.L1IDefault
	run := func(pl *layout.Layout, pt *trace.Trace, ql *layout.Layout, qt *trace.Trace) cachesim.CorunResult {
		return cachesim.SimulateCorun(cfg,
			layout.NewReplayer(pl, pt, cfg.LineBytes, false),
			layout.NewReplayer(ql, qt, cfg.LineBytes, true))
	}
	want := func(p, q sideIn, got pairSide) error {
		baseRun := run(p.base, p.tr, q.base, q.tr)
		optRun := run(p.opt, p.tr, q.base, q.tr)
		deployed := run(p.opt, p.tr, q.opt, q.tr)
		solo := cachesim.SimulateSolo(cfg, layout.NewReplayer(p.opt, p.tr, cfg.LineBytes, false)).Stats.MissRatio()
		w := pairSide{
			Digest:        got.Digest,
			MissSolo:      solo,
			MissCorun:     deployed.PerThread[0].MissRatio(),
			Defensiveness: stats.Reduction(baseRun.PerThread[0].MissRatio(), optRun.PerThread[0].MissRatio()),
			Politeness:    stats.Reduction(baseRun.PerThread[1].MissRatio(), optRun.PerThread[1].MissRatio()),
		}
		if w != got {
			return fmt.Errorf("side %.12s: document %+v, simulation %+v", got.Digest, got, w)
		}
		return nil
	}
	if err := want(sa, sb, doc.A); err != nil {
		return err
	}
	return want(sb, sa, doc.B)
}

// checkSeeds holds every cluster-reuse seeding result against the serial
// pipeline, as checkOp does for fresh jobs.
func (c *checker) checkSeeds() []string {
	var bad []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, s := range c.e.seeds {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var res resultDoc
			err := json.Unmarshal(s.result, &res)
			if err == nil {
				err = checkResult(c.e.prof, s.in, &res)
			}
			if err != nil {
				mu.Lock()
				bad = append(bad, fmt.Sprintf("seed %d %s/%s: %v", i, s.in.prog, s.in.opt, err))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return bad
}
