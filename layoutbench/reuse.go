package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// clusterShares is how many operations of each kind cluster-reuse's
// cycle holds. They are set from the per-kind medians measured under
// this mix (see README.md) so that each kind takes about a quarter of
// the clients' time: then ops_per_s, a gated metric, falls by a fifth
// when any one kind takes twice as long.
var clusterShares = []struct {
	kind  string
	count int
}{
	{kindCorun, 1},
	{kindHit, 17},
	{kindSchedule, 106},
	{kindRead, 865},
}

// clusterMix is cluster-reuse's operation cycle: clusterShares with each
// kind's operations spread evenly over it.
var clusterMix = spreadMix()

func spreadMix() []string {
	type slot struct {
		at   float64
		kind string
	}
	var slots []slot
	for _, s := range clusterShares {
		for j := range s.count {
			slots = append(slots, slot{(float64(j) + 0.5) / float64(s.count), s.kind})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].at < slots[j].at })
	mix := make([]string, len(slots))
	for i, s := range slots {
		mix[i] = s.kind
	}
	return mix
}

func clusterMixDoc() string {
	var parts []string
	for _, s := range clusterShares {
		parts = append(parts, fmt.Sprintf("%d %s", s.count, s.kind))
	}
	return fmt.Sprintf("per %d ops: %s; hits resubmit func-affinity/func-trg profiles, co-runs take unscored pairs, schedules place 4 layouts over scored pairs; clients round-robin over nodes",
		len(clusterMix), strings.Join(parts, ", "))
}

// Seeded layouts: every main-suite program under every function
// optimizer, plus short bb windows of the cheap bb programs. Hits
// resubmit only the streamed func optimizers' profiles: a buffered hit
// (decode and hash, a few ms) and a streamed hit (the feed re-runs) are
// two latency modes, and the streamed one is the path the motivation
// measured.
const (
	schedPoolSize = 6 // seeds whose 15 pairs set-up scores for schedules
	schedSize     = 4 // digests per schedule request
	seedBBWindow  = 40000
)

var scheduleTopology = map[string]int{"domains": 2, "slotsPerDomain": 2}

// seedInputs builds the inputs of the layouts set-up seeds.
func (e *env) seedInputs() ([]*jobInput, error) {
	var ins []*jobInput
	for _, prog := range programsFor(e.wl) {
		for k, opt := range funcOpts {
			in, err := newInput(prog, opt, e.prof.window(prog, 0, e.base, k))
			if err != nil {
				return nil, err
			}
			if opt == "func-affinity" || opt == "func-trg" {
				e.hitSeeds = append(e.hitSeeds, len(ins))
			}
			ins = append(ins, in)
		}
	}
	for _, prog := range bbProgs {
		in, err := newInput(prog, "bb-affinity", e.prof.window(prog, seedBBWindow, e.base, 1))
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	in, err := newInput(bbProgs[0], "bb-trg", e.prof.window(bbProgs[0], seedBBWindow, e.base, 2))
	if err != nil {
		return nil, err
	}
	return append(ins, in), nil
}

// seedCluster optimizes the seeded layouts through the cluster and
// scores the schedule pool's pairs.
func (e *env) seedCluster(ins []*jobInput) error {

	e.seeds = make([]*seeded, len(ins))
	ops := make([]*op, len(ins))
	for i, in := range ins {
		ops[i] = &op{kind: kindJob, in: in, node: i % len(e.nodes)}
	}
	if err := e.runAll(ops, func(o *op) { e.client.submitJob(o) }); err != nil {
		return fmt.Errorf("seeding: %w", err)
	}
	for i, o := range ops {
		res, err := compactJSON(o.view.Result)
		if err != nil {
			return fmt.Errorf("seeding %s/%s: %w", o.in.prog, o.in.opt, err)
		}
		e.seeds[i] = &seeded{in: o.in, digest: o.view.Digest, result: res}
		e.retained.Add(int64(cap(res)))
	}

	perm := e.rng.Perm(len(e.seeds))
	e.schedPool = perm[:schedPoolSize]
	inPool := map[int]bool{}
	for _, s := range e.schedPool {
		inPool[s] = true
	}
	var poolPairs []*op
	for a := 0; a < len(e.seeds); a++ {
		for b := a + 1; b < len(e.seeds); b++ {
			if inPool[a] && inPool[b] {
				poolPairs = append(poolPairs, &op{kind: kindCorun, pair: [2]int{a, b}, node: len(poolPairs) % len(e.nodes)})
			} else {
				e.pairs = append(e.pairs, [2]int{a, b})
			}
		}
	}
	e.rng.Shuffle(len(e.pairs), func(i, j int) { e.pairs[i], e.pairs[j] = e.pairs[j], e.pairs[i] })
	if err := e.runAll(poolPairs, e.corun); err != nil {
		return fmt.Errorf("scoring schedule pool: %w", err)
	}
	return nil
}

// runAll runs set-up operations with the workload's client count.
func (e *env) runAll(ops []*op, do func(*op)) error {
	var wg sync.WaitGroup
	next := make(chan *op)
	for range e.cfg.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range next {
				do(o)
			}
		}()
	}
	for _, o := range ops {
		next <- o
	}
	close(next)
	wg.Wait()
	for _, o := range ops {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

func (e *env) corun(o *op) {
	a, b := e.seeds[o.pair[0]], e.seeds[o.pair[1]]
	e.client.postJSON(o, "/v1/corun", map[string]string{"a": a.digest, "b": b.digest})
}

func (e *env) schedule(o *op) {
	digests := make([]string, len(o.subset))
	for i, s := range o.subset {
		digests[i] = e.seeds[s].digest
	}
	e.client.postJSON(o, "/v1/schedule", map[string]any{"digests": digests, "topology": scheduleTopology})
}

// reuseOp fills in the i-th operation of the cluster-reuse cycle.
func (e *env) reuseOp(o *op, i int) {
	o.kind = clusterMix[i%len(clusterMix)]
	switch o.kind {
	case kindHit:
		o.seed = e.hitSeeds[int(e.hitNext.Add(1)-1)%len(e.hitSeeds)]
		o.in = e.seeds[o.seed].in
	case kindRead:
		o.seed = int(e.readNext.Add(1)-1) % len(e.seeds)
	case kindCorun:
		k := int(e.pairNext.Add(1) - 1)
		if k >= len(e.pairs) {
			// Out of unscored pairs: the co-run is a pair-cache hit.
			// Counted so a run that gets here says so.
			e.pairWraps.Add(1)
		}
		o.pair = e.pairs[k%len(e.pairs)]
	case kindSchedule:
		e.rngMu.Lock()
		perm := e.rng.Perm(len(e.schedPool))[:schedSize]
		e.rngMu.Unlock()
		o.subset = make([]int, schedSize)
		for j, p := range perm {
			o.subset[j] = e.schedPool[p]
		}
	}
}

func (e *env) runOp(o *op) {
	switch o.kind {
	case kindJob, kindHit:
		e.client.submitJob(o)
	case kindRead:
		e.client.read(o, e.seeds[o.seed].digest)
	case kindCorun:
		e.corun(o)
	case kindSchedule:
		e.schedule(o)
	}
}

func compactJSON(raw []byte) ([]byte, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty document")
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
