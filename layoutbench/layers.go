package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"codelayout/internal/affinity"
	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/footprint"
	"codelayout/internal/layout"
	"codelayout/internal/obs"
	"codelayout/internal/schedule"
	"codelayout/internal/store"
	"codelayout/internal/trace"
	"codelayout/internal/trg"
)

// span is one recorded interval. Spans of one operation share Trace;
// Parent is 0 for a root.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// clientSpans numbers the spans the traced phase's operations recorded
// around their requests: each operation's root (recorded last) parents
// its requests.
func clientSpans(p *phase) []span {
	var out []span
	for _, o := range p.ops {
		if len(o.spans) == 0 {
			continue
		}
		root := len(out) + len(o.spans)
		for i, s := range o.spans {
			s.ID = len(out) + 1
			if i < len(o.spans)-1 {
				s.Parent = root
			}
			out = append(out, s)
		}
	}
	return out
}

// layerRec times the replay of a workload's inputs through each layer's
// public functions. Each timed call is a leaf span, so its self time is
// its duration.
type layerRec struct {
	calls map[string][]float64
	spans []span
	trace string
	root  int
}

func newLayerRec() *layerRec {
	return &layerRec{calls: map[string][]float64{}}
}

// begin opens a root span for one replayed input; timed calls until the
// next begin are its children.
func (r *layerRec) begin(name string) {
	r.trace = obs.NewTraceID()
	r.root = len(r.spans) + 1
	now := time.Now().UnixNano()
	r.spans = append(r.spans, span{r.trace, r.root, 0, name, now, now})
}

func (r *layerRec) time(metric string, f func()) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	r.calls[metric] = append(r.calls[metric], ms(t1.Sub(t0)))
	r.spans = append(r.spans, span{r.trace, len(r.spans) + 1, r.root, metric, t0.UnixNano(), t1.UnixNano()})
	r.spans[r.root-1].End = t1.UnixNano()
}

func (r *layerRec) add(metric string, v float64) { r.calls[metric] = append(r.calls[metric], v) }

func (r *layerRec) median(metric string) float64 { return median(r.calls[metric]) }

// feedChunkRefs matches layoutd's streamed decode chunk size.
const feedChunkRefs = 8192

// replayInput runs one optimization input through every layer it
// reaches, timing each public call the way layoutd sequences them.
func (r *layerRec) replayInput(e *env, in *jobInput, seq []int32, arena *core.Arena, st *store.Store, result []byte) error {
	ctx := context.Background()
	prog := e.prof.progs[in.prog]
	opt, err := core.OptimizerByName(in.opt)
	if err != nil {
		return err
	}
	workers := e.cfg.OptWorkers
	r.begin("replay." + in.opt)

	r.time("trace.decode_ms", func() { _, err = trace.ReadFrom(bytes.NewReader(in.body)) })
	if err != nil {
		return err
	}
	r.time("trace.digest_ms", func() {
		hr := trace.NewHashingReader(bytes.NewReader(in.body))
		_, err = io.Copy(io.Discard, hr)
		_ = hr.Sum()
	})
	if err != nil {
		return err
	}
	var pruned *trace.Trace
	r.time("trace.prune_ms", func() {
		tt := in.tr.Trimmed()
		if opt.Gran == core.GranFunction {
			tt = trace.FuncTrace(prog, in.tr)
		}
		pruned, _ = tt.PruneTopN(core.DefaultPruneTopN)
		pruned = pruned.Trimmed()
	})

	switch opt.Model {
	case core.ModelAffinity:
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.time("affinity.hierarchy_ms", func() {
			_, err = affinity.BuildHierarchyCtx(ctx, pruned, affinity.Options{Workers: workers, Arena: &arena.Affinity})
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		r.add("affinity.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		r.time("affinity.feed_ms", func() {
			f := affinity.NewFeeder(ctx, affinity.Options{Workers: workers, Arena: &arena.Affinity})
			for lo := 0; lo < len(pruned.Syms) && err == nil; lo += feedChunkRefs {
				err = f.Feed(pruned.Syms[lo:min(lo+feedChunkRefs, len(pruned.Syms))])
			}
			if err == nil {
				_, err = f.Finish(ctx)
			} else {
				f.Abort()
			}
		})
		if err != nil {
			return err
		}
	case core.ModelTRG:
		blockBytes := 64
		if opt.Gran == core.GranFunction {
			blockBytes = 512
		}
		params := trg.DefaultParams(blockBytes)
		var g *trg.Graph
		r.time("trg.build_ms", func() { g, err = trg.BuildCtx(ctx, pruned, params.WindowBlocks(), workers, &arena.TRG) })
		if err != nil {
			return err
		}
		r.add("trg.edges", float64(g.NumEdges()))
		r.time("trg.reduce_ms", func() { trg.Reduce(g, params.Slots()) })
		arena.TRG.PutGraph(g)
		r.time("trg.feed_ms", func() {
			f := trg.NewFeeder(ctx, params.WindowBlocks(), workers, 0, &arena.TRG)
			for lo := 0; lo < len(pruned.Syms) && err == nil; lo += feedChunkRefs {
				err = f.Feed(pruned.Syms[lo:min(lo+feedChunkRefs, len(pruned.Syms))])
			}
			if err == nil {
				g, err = f.Finish(ctx)
				if err == nil {
					arena.TRG.PutGraph(g)
				}
			} else {
				f.Abort()
			}
		})
		if err != nil {
			return err
		}
	}

	var l *layout.Layout
	r.time("layout.emit_ms", func() { l, err = core.LayoutFromSequence(prog, in.opt, seq) })
	if err != nil {
		return err
	}
	cfg := cachesim.L1IDefault
	r.time("cachesim.replay_ms", func() {
		cachesim.SimulateSolo(cfg, layout.NewReplayer(layout.Original(prog), in.tr, cfg.LineBytes, false))
		cachesim.SimulateSolo(cfg, layout.NewReplayer(l, in.tr, cfg.LineBytes, false))
	})
	key := sha256Hex(in.body) + in.opt
	r.time("store.put_ms", func() {
		st.Put(key, result)
		st.Flush()
	})
	r.time("store.get_ms", func() { st.Get(key) })
	return nil
}

// pairInput is one side of a replayed co-run.
type pairInput struct {
	in  *jobInput
	seq []int32
}

// replayPair runs one co-run pair through cachesim and footprint the way
// layoutd's pair analysis does, and returns its Eq-1 pair cost.
func (r *layerRec) replayPair(e *env, a, b pairInput) (float64, error) {
	cfg := cachesim.L1IDefault
	type side struct {
		tr        *trace.Trace
		base, opt *layout.Layout
	}
	mk := func(p pairInput) (side, error) {
		prog := e.prof.progs[p.in.prog]
		l, err := core.LayoutFromSequence(prog, p.in.opt, p.seq)
		return side{p.in.tr, layout.Original(prog), l}, err
	}
	sa, err := mk(a)
	if err != nil {
		return 0, err
	}
	sb, err := mk(b)
	if err != nil {
		return 0, err
	}
	r.begin("replay.corun")
	rep := func(l *layout.Layout, t *trace.Trace, wrap bool) *layout.Replayer {
		return layout.NewReplayer(l, t, cfg.LineBytes, wrap)
	}
	r.time("cachesim.corun_ms", func() {
		for _, j := range []cachesim.CorunJob{
			{Primary: rep(sa.base, sa.tr, false), Peer: rep(sb.base, sb.tr, true)},
			{Primary: rep(sa.opt, sa.tr, false), Peer: rep(sb.base, sb.tr, true)},
			{Primary: rep(sb.base, sb.tr, false), Peer: rep(sa.base, sa.tr, true)},
			{Primary: rep(sb.opt, sb.tr, false), Peer: rep(sa.base, sa.tr, true)},
			{Primary: rep(sa.opt, sa.tr, false), Peer: rep(sb.opt, sb.tr, true)},
			{Primary: rep(sb.opt, sb.tr, false), Peer: rep(sa.opt, sa.tr, true)},
		} {
			cachesim.SimulateCorun(cfg, j.Primary, j.Peer)
		}
	})
	var curves [2]*footprint.Curve
	for i, s := range []side{sa, sb} {
		lines := lineTrace(s.opt, s.tr, cfg.LineBytes)
		r.time("footprint.curve_ms", func() {
			curves[i] = footprint.NewCurveCtx(context.Background(), lines, nil, e.cfg.OptWorkers)
		})
	}
	capacity := float64(cfg.SizeBytes / cfg.LineBytes)
	return footprint.CorunMissRatio(curves[0], curves[1], capacity)*float64(curves[0].N) +
		footprint.CorunMissRatio(curves[1], curves[0], capacity)*float64(curves[1].N), nil
}

func lineTrace(l *layout.Layout, t *trace.Trace, lineBytes int) []int32 {
	r := layout.NewReplayer(l, t, lineBytes, false)
	var lines []int32
	buf := make([]int64, 0, 4096)
	for {
		out, blocks := r.AppendLines(buf[:0], 1024)
		if blocks == 0 {
			return lines
		}
		for _, ln := range out {
			lines = append(lines, int32(ln))
		}
		buf = out[:0]
	}
}

func (r *layerRec) replaySchedule(matrix [][]float64) error {
	topo := schedule.Topology{Domains: scheduleTopology["domains"], SlotsPerDomain: scheduleTopology["slotsPerDomain"]}
	var err error
	r.begin("replay.schedule")
	r.time("schedule.solve_ms", func() { _, err = schedule.Solve(context.Background(), matrix, topo) })
	return err
}

// serverPhase folds server-reported spans: per job, the self time of
// each phase (its span minus the part its nested spans cover), summed
// over the job's spans of that name.
func foldServerTrace(tv *serverTrace) map[string]float64 {
	type iv struct{ s, e float64 }
	n := len(tv.Spans)
	ivs := make([]iv, n)
	for i, sp := range tv.Spans {
		ivs[i] = iv{sp.StartMS, sp.StartMS + max(sp.DurMS, 0)}
	}
	contains := func(a, b int) bool { // a strictly encloses b (ties: earlier index encloses)
		if ivs[a].s > ivs[b].s || ivs[a].e < ivs[b].e {
			return false
		}
		if ivs[a] == ivs[b] {
			return a < b
		}
		return true
	}
	out := map[string]float64{}
	for i, sp := range tv.Spans {
		if sp.DurMS < 0 {
			continue
		}
		var kids []iv
		for j := range n {
			if j == i || !contains(i, j) {
				continue
			}
			direct := true
			for k := range n {
				if k != i && k != j && contains(i, k) && contains(k, j) {
					direct = false
					break
				}
			}
			if direct {
				kids = append(kids, ivs[j])
			}
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a].s < kids[b].s })
		covered, end := 0.0, ivs[i].s
		for _, k := range kids {
			s := max(k.s, end)
			if k.e > s {
				covered += k.e - s
				end = k.e
			}
		}
		out[sp.Name] += sp.DurMS - covered
	}
	return out
}

// serverCounterpart maps a server phase to the replayed layer metrics
// measuring the same work outside the server, summed; a metric listed
// twice runs twice per job (a co-run builds both sides' curves).
var serverCounterpart = map[string][]string{
	"trace.decode":    {"trace.decode_ms", "trace.digest_ms"},
	"trace.prune":     {"trace.prune_ms"},
	"trg.build":       {"trg.build_ms"},
	"trg.reduce":      {"trg.reduce_ms"},
	"layout.emit":     {"layout.emit_ms"},
	"cachesim.replay": {"cachesim.replay_ms"},
	"corun.replay":    {"cachesim.corun_ms"},
	"footprint.curve": {"footprint.curve_ms", "footprint.curve_ms"},
	"schedule.solve":  {"schedule.solve_ms"},
	"store.read":      {"store.get_ms"},
}

// maxPairReplays bounds the co-runs a traced cluster-reuse run replays.
const maxPairReplays = 24

// hitProbe is how many finished fresh jobs a traced run resubmits to
// measure the hit path of a workload that has no hits of its own.
const hitProbe = 8

// layerMetrics is the traced run's analysis: server-span cross-check,
// layer replay of every input, hit and forwarding figures, and the
// tracing overhead. It prints its tables to w and returns the replay's
// spans.
func layerMetrics(e *env, untraced, traced *phase, profileMS []float64, w io.Writer) (map[string]float64, []string, []span, error) {
	var notes []string
	m := map[string]float64{}

	// Server-span cross-check.
	phases := map[string][]float64{}
	var hitElapsed, idMismatch, fetchErr, hitsSeen int
	for _, o := range traced.ops {
		if o.err != nil || o.view.ID == "" {
			continue
		}
		tv, err := e.client.jobTrace(o)
		if err != nil {
			fetchErr++
			continue
		}
		if tv.TraceID != o.traceID {
			idMismatch++
		}
		for name, self := range foldServerTrace(tv) {
			phases[name] = append(phases[name], self)
		}
		if o.view.Cached && len(o.view.Result) > 0 {
			hitsSeen++
			var res resultDoc
			if json.Unmarshal(o.view.Result, &res) == nil && res.ElapsedMS != 0 {
				hitElapsed++
			}
		}
	}

	// Layer replay of every distinct input the traced phase sent.
	rec := newLayerRec()
	stDir := filepath.Join(e.dir, "layer-store")
	st, err := store.Open(store.Config{Dir: stDir, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("layer store: %w", err)
	}
	defer func() {
		st.Close()
		os.RemoveAll(stDir)
	}()
	arena := &core.Arena{}
	seen := map[*jobInput]bool{}
	var done []pairInput
	// If the traced operations do not reach every kernel, or finish two
	// jobs to pair, the replay goes on with the untraced operations'.
	short := func() bool {
		return len(rec.calls["affinity.hierarchy_ms"]) == 0 || len(rec.calls["trg.build_ms"]) == 0 || len(done) < 2
	}
	for i, o := range append(slices.Clone(traced.ops), untraced.ops...) {
		if i >= len(traced.ops) && !short() {
			break
		}
		if o.err != nil || o.in == nil || seen[o.in] {
			continue
		}
		seen[o.in] = true
		in, err := e.load(o.in)
		if err != nil {
			return nil, nil, nil, err
		}
		var res resultDoc
		if err := json.Unmarshal(o.view.Result, &res); err != nil {
			return nil, nil, nil, fmt.Errorf("decoding result: %w", err)
		}
		if err := rec.replayInput(e, in, res.Report.Sequence, arena, st, o.view.Result); err != nil {
			return nil, nil, nil, fmt.Errorf("replaying %s/%s: %w", in.prog, in.opt, err)
		}
		if len(done) < schedSize {
			done = append(done, pairInput{in, res.Report.Sequence})
		}
	}
	// Co-runs and schedules: the traced phase's own on cluster-reuse (the
	// first maxPairReplays co-runs: each replays six simulations); on the
	// fresh workloads, every pair of the first schedSize results and a
	// schedule over them.
	seedSide := func(i int) (pairInput, error) {
		var res resultDoc
		err := json.Unmarshal(e.seeds[i].result, &res)
		return pairInput{e.seeds[i].in, res.Report.Sequence}, err
	}
	nPairs := 0
	for _, o := range traced.ops {
		if o.kind != kindCorun || o.err != nil || nPairs >= maxPairReplays {
			continue
		}
		a, err := seedSide(o.pair[0])
		if err != nil {
			return nil, nil, nil, err
		}
		b, err := seedSide(o.pair[1])
		if err != nil {
			return nil, nil, nil, err
		}
		if _, err := rec.replayPair(e, a, b); err != nil {
			return nil, nil, nil, err
		}
		nPairs++
	}
	for _, o := range traced.ops {
		if o.kind != kindSchedule || o.err != nil {
			continue
		}
		var doc scheduleDoc
		if err := json.Unmarshal(o.view.Schedule, &doc); err != nil {
			return nil, nil, nil, err
		}
		if err := rec.replaySchedule(doc.Matrix); err != nil {
			return nil, nil, nil, err
		}
	}
	if e.wl != wlClusterReuse {
		n := len(done)
		if n < 2 {
			return nil, nil, nil, fmt.Errorf("the run finished %d jobs; the co-run replay needs 2", n)
		}
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
		}
		for i := range n {
			for j := i + 1; j < n; j++ {
				c, err := rec.replayPair(e, done[i], done[j])
				if err != nil {
					return nil, nil, nil, err
				}
				cost[i][j], cost[j][i] = c, c
			}
		}
		if err := rec.replaySchedule(cost); err != nil {
			return nil, nil, nil, err
		}
	}

	// Hits: cluster-reuse's own; a resubmission probe otherwise.
	hitOps := filterOps(traced.ops, kindHit)
	if e.wl != wlClusterReuse {
		for i, o := range traced.ops {
			if i >= hitProbe {
				break
			}
			if o.err != nil {
				continue
			}
			in, err := e.load(o.in)
			if err != nil {
				return nil, nil, nil, err
			}
			p := &op{kind: kindHit, in: in, traceID: obs.NewTraceID()}
			e.client.submitJob(p)
			hitOps = append(hitOps, p)
		}
	}
	var cached int
	var excess []float64
	for _, o := range hitOps {
		if o.err != nil {
			continue
		}
		if o.view.Cached {
			cached++
		}
		var dec, dig time.Duration
		t0 := time.Now()
		trace.ReadFrom(bytes.NewReader(o.in.body))
		dec = time.Since(t0)
		t0 = time.Now()
		sha256Hex(o.in.body)
		dig = time.Since(t0)
		excess = append(excess, ms(o.latency()-dec-dig))
	}
	m["server.hit_share"] = float64(cached) / float64(max(len(hitOps), 1))
	m["server.hit_excess_ms"] = median(excess)

	for _, d := range perLayer {
		if _, ok := rec.calls[d.Name]; ok {
			m[d.Name] = rec.median(d.Name)
		}
	}
	m["interp.profile_ms"] = median(profileMS)
	m["bench.trace_overhead_ms"] = median(latencies(traced.ops, &checker{}, kindJob, kindHit)) -
		median(latencies(untraced.ops, &checker{}, kindJob, kindHit))
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			return nil, nil, nil, fmt.Errorf("layer metric %s was not measured", d.Name)
		}
	}

	// Forwarding (cluster-reuse only).
	var fwdKinds []string
	if e.wl == wlClusterReuse {
		var fwd, total int
		for _, kind := range []string{kindHit, kindRead, kindCorun, kindSchedule} {
			var via, local []float64
			for _, o := range filterOps(traced.ops, kind) {
				if o.err != nil {
					continue
				}
				total++
				if o.forwarded {
					fwd++
					via = append(via, ms(o.latency()))
				} else {
					local = append(local, ms(o.latency()))
				}
			}
			if len(via) > 0 && len(local) > 0 {
				m["cluster.forward_ms."+kind] = median(via) - median(local)
				fwdKinds = append(fwdKinds, kind)
			}
		}
		m["cluster.forwarded_share"] = float64(fwd) / float64(max(total, 1))
	}

	// Tables.
	fmt.Fprintf(w, "per-layer (%s, traced phase: %d ops; replayed %d inputs, %d pairs)\n",
		e.wl, len(traced.ops), len(seen), len(rec.calls["cachesim.corun_ms"]))
	for _, d := range perLayer {
		n := ""
		if c := len(rec.calls[d.Name]); c > 0 {
			n = fmt.Sprintf("(median of %d calls)", c)
		}
		fmt.Fprintf(w, "  %-26s %12.4f %-5s %s\n", d.Name, m[d.Name], d.Unit, n)
	}
	for _, k := range fwdKinds {
		fmt.Fprintf(w, "  %-26s %12.4f ms    (via a non-owner minus via the owner)\n", "cluster.forward_ms."+k, m["cluster.forward_ms."+k])
	}
	if e.wl == wlClusterReuse {
		fmt.Fprintf(w, "  %-26s %12.4f ratio\n", "cluster.forwarded_share", m["cluster.forwarded_share"])
	}
	uj := median(latencies(untraced.ops, &checker{}, kindJob, kindHit))
	fmt.Fprintf(w, "tracing overhead: job p50 %.3f ms traced vs %.3f ms untraced (%+.3f ms)\n",
		uj+m["bench.trace_overhead_ms"], uj, m["bench.trace_overhead_ms"])

	fmt.Fprintf(w, "server spans vs benchmark (per-job self time, p50 ms)\n")
	names := make([]string, 0, len(phases))
	for k := range phases {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		srv := median(phases[name])
		line := fmt.Sprintf("  %-20s server %10.3f (n=%d)", name, srv, len(phases[name]))
		if mets, ok := serverCounterpart[name]; ok {
			var out float64
			for _, mt := range mets {
				out += rec.median(mt)
			}
			line += fmt.Sprintf("  benchmark %10.3f (%s)", out, mets[0])
			if (srv > 2*out || out > 2*srv) && abs(srv-out) > 1 {
				line += "  DISAGREE"
				notes = append(notes, fmt.Sprintf("server phase %s reports %.3f ms, benchmark measured %.3f ms", name, srv, out))
			}
		}
		fmt.Fprintln(w, line)
	}
	if hitElapsed > 0 {
		notes = append(notes, fmt.Sprintf("%d of %d cache hits report a nonzero elapsedMS; the Result doc says 0 for cache hits", hitElapsed, hitsSeen))
		fmt.Fprintf(w, "  DISAGREE: %d of %d cache hits report a nonzero elapsedMS\n", hitElapsed, hitsSeen)
	}
	if idMismatch > 0 || fetchErr > 0 {
		notes = append(notes, fmt.Sprintf("server traces: %d fetch errors, %d trace-ID mismatches", fetchErr, idMismatch))
	}
	return m, notes, rec.spans, nil
}

func filterOps(ops []*op, kind string) []*op {
	var out []*op
	for _, o := range ops {
		if o.kind == kind {
			out = append(out, o)
		}
	}
	return out
}

func abs(x float64) float64 { return max(x, -x) }

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
