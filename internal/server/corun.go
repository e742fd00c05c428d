package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/footprint"
	"codelayout/internal/layout"
	"codelayout/internal/obs"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
)

// maxJSONBody caps the /v1/corun and /v1/schedule request bodies; these
// carry digests and parameters, never trace payloads.
const maxJSONBody = 1 << 20

// pairStoreKey prefixes co-run pair documents in the durable store
// (trace blobs use "t-", schedule documents "s-"); result digests are
// bare hex, so prefixed keys cannot collide with them.
const pairStoreKey = "p-"

// corunRequest is the decoded body of POST /v1/corun: two cached layout
// digests plus an optional cache geometry (default: the paper's 32 KB
// 4-way L1I). Self-pairing (a == b) is allowed — two instances of the
// same layout sharing a cache is a meaningful co-run.
type corunRequest struct {
	A     string           `json:"a"`
	B     string           `json:"b"`
	Cache *cachesim.Config `json:"cache,omitempty"`
}

// PairSide is one program's view of a co-run pairing in a CorunDoc. The
// measured numbers come from replaying both traces through one shared
// simulated cache (cachesim.SimulateCorun); the predicted ones from the
// paper's Eq-1 footprint composition, which the scheduler minimizes.
type PairSide struct {
	// Digest names the cached optimization result this side replays.
	Digest    string `json:"digest"`
	Prog      string `json:"prog"`
	Optimizer string `json:"optimizer"`
	// MissSolo is the optimized layout's solo miss ratio; MissCorun its
	// miss ratio co-running with the peer's optimized layout; Contention
	// the difference — what sharing the cache costs this program.
	MissSolo   float64 `json:"missSolo"`
	MissCorun  float64 `json:"missCorun"`
	Contention float64 `json:"contention"`
	// Defensiveness is the relative reduction of this side's co-run miss
	// ratio from optimizing it (baseline peer held fixed); Politeness is
	// the relative reduction it causes in the peer's miss ratio — the
	// paper's benefit classes 2 and 3.
	Defensiveness float64 `json:"defensiveness"`
	Politeness    float64 `json:"politeness"`
	// PredMissRatio is the Eq-1 predicted co-run miss ratio of this
	// side's optimized layout against the peer's; PredMisses scales it
	// by the side's line-fetch count to a predicted miss count.
	PredMissRatio float64 `json:"predMissRatio"`
	PredMisses    float64 `json:"predMisses"`
}

// CorunDoc is the completed output of one co-run analysis — what the
// pair cache stores under its digest and what the interference matrix is
// assembled from. Sides are in canonical (sorted-digest) order, so the
// documents for (a, b) and (b, a) are one blob.
type CorunDoc struct {
	// Digest is the content address: SHA-256 over the sorted result
	// digests and the cache geometry.
	Digest string          `json:"digest"`
	Cache  cachesim.Config `json:"cache"`
	A      PairSide        `json:"a"`
	B      PairSide        `json:"b"`
	// PairCost is the total Eq-1 predicted co-run misses of the pairing
	// (A.PredMisses + B.PredMisses) — the symmetric weight the placement
	// solver minimizes.
	PairCost float64 `json:"pairCost"`
	// PeerLaps reports how many times each side's wrapping peer restarted
	// during the deployed-pairing simulation (A's run, then B's).
	PeerLaps [2]int `json:"peerLaps"`
	// ElapsedMS is the computing job's analysis wall time; a hit returns
	// the stored document unchanged.
	ElapsedMS float64 `json:"elapsedMS"`
}

// corunEntry is one digest's materialized inputs: the cached result, the
// baseline and rebuilt optimized layouts, and the retained trace.
// Derived artifacts (line traces, footprint curves, solo miss ratios)
// are memoized per entry because a schedule job reuses them across every
// pair the entry appears in; the mutex serializes that lazy work.
type corunEntry struct {
	res  *Result
	base *layout.Layout
	opt  *layout.Layout
	tr   *trace.Trace

	mu     sync.Mutex
	lines  map[int][]int32             // optimized-layout line trace by lineBytes
	curves map[int]*footprint.Curve    // footprint curve by lineBytes
	solo   map[cachesim.Config]float64 // optimized solo miss ratio by geometry
}

// lineTrace returns the entry's optimized layout replayed to a cache-line
// reference trace — the input of the footprint model. Lines fit in int32
// because layouts address at most a few megabytes of code.
func (e *corunEntry) lineTrace(lineBytes int) []int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if lines, ok := e.lines[lineBytes]; ok {
		return lines
	}
	r := layout.NewReplayer(e.opt, e.tr, lineBytes, false)
	var lines []int32
	buf := make([]int64, 0, 4096)
	for {
		out, blocks := r.AppendLines(buf[:0], 1024)
		if blocks == 0 {
			break
		}
		for _, ln := range out {
			lines = append(lines, int32(ln))
		}
		buf = out[:0]
	}
	if e.lines == nil {
		e.lines = make(map[int][]int32)
	}
	e.lines[lineBytes] = lines
	return lines
}

// curve returns the entry's footprint curve over its line trace,
// memoized per line size.
func (e *corunEntry) curve(ctx context.Context, lineBytes, workers int) *footprint.Curve {
	lines := e.lineTrace(lineBytes)
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.curves[lineBytes]; ok {
		return c
	}
	c := footprint.NewCurveCtx(ctx, lines, nil, workers)
	if e.curves == nil {
		e.curves = make(map[int]*footprint.Curve)
	}
	e.curves[lineBytes] = c
	return c
}

// soloMiss returns the optimized layout's solo miss ratio under cfg,
// memoized per geometry.
func (e *corunEntry) soloMiss(ctx context.Context, cfg cachesim.Config) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.solo[cfg]; ok {
		return m
	}
	m := cachesim.SimulateSoloCtx(ctx, cfg,
		layout.NewReplayer(e.opt, e.tr, cfg.LineBytes, false)).Stats.MissRatio()
	if e.solo == nil {
		e.solo = make(map[cachesim.Config]float64)
	}
	e.solo[cfg] = m
	return m
}

// corunDigest derives the content address of a pair analysis: the two
// result digests in sorted order (the pairing is symmetric) plus the
// cache geometry, newline-framed like resultDigest.
func corunDigest(dA, dB string, cfg cachesim.Config) string {
	if dB < dA {
		dA, dB = dB, dA
	}
	h := sha256.New()
	fmt.Fprintf(h, "layoutd/corun/v1\na:%s\nb:%s\ncache:%d/%d/%d\n",
		dA, dB, cfg.SizeBytes, cfg.Assoc, cfg.LineBytes)
	return hex.EncodeToString(h.Sum(nil))
}

// resolveEntry materializes one cached digest for co-run analysis:
// result lookup, trace retrieval, program regeneration, and layout
// rebuild from the recorded sequence. The int is the HTTP status a
// failure maps to.
func (s *Server) resolveEntry(ctx context.Context, digest string) (*corunEntry, int, error) {
	res, ok := s.cache.get(ctx, digest)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("no cached layout %q", digest)
	}
	tr, ok := s.traces.get(ctx, res.TraceDigest)
	if !ok {
		return nil, http.StatusNotFound,
			fmt.Errorf("trace %s behind layout %s is no longer retained; resubmit the profile to POST /v1/jobs",
				res.TraceDigest, digest)
	}
	prog, err := s.program(res.Prog)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	opt, err := core.LayoutFromSequence(prog, res.Optimizer, res.Report.Sequence)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return &corunEntry{res: res, base: layout.Original(prog), opt: opt, tr: tr}, 0, nil
}

// readJSON decodes a small strict-schema JSON request body.
func readJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, maxJSONBody)
	defer body.Close()
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// corunConfig resolves the optional cache geometry of a request.
func corunConfig(c *cachesim.Config) (cachesim.Config, error) {
	if c == nil {
		return cachesim.L1IDefault, nil
	}
	if err := c.Validate(); err != nil {
		return cachesim.Config{}, err
	}
	return *c, nil
}

// handleCorun is POST /v1/corun: analyze a pair of cached layouts
// sharing a cache. Pair documents are content-addressed, so a repeated
// pairing (in either order) completes instantly from the cache;
// otherwise the analysis runs as an async job with the same
// backpressure, deadline, and cancellation rules as optimizations.
func (s *Server) handleCorun(w http.ResponseWriter, r *http.Request) {
	ctx, sub := s.newSubmissionCtx(r)

	var req corunRequest
	if err := readJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.A == "" || req.B == "" {
		httpError(w, http.StatusBadRequest, errors.New(`missing required field: "a" and "b" layout digests`))
		return
	}
	cfg, err := corunConfig(req.Cache)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	pair, status, err := s.resolveEntries(ctx, []string{req.A, req.B})
	if err != nil {
		httpError(w, status, err)
		return
	}
	a, b := pair[0], pair[1]
	s.metrics.corunJobs.Inc()

	key := corunDigest(a.res.Digest, b.res.Digest, cfg)
	j := s.newJob(sub, jobKindCorun, key,
		a.res.Prog+"+"+b.res.Prog, a.res.Optimizer+"+"+b.res.Optimizer)
	if doc, ok := s.pairs.get(ctx, key); ok {
		s.metrics.pairHits.Inc()
		s.answerHit(w, j, doc)
		return
	}
	s.metrics.pairMisses.Inc()
	if !s.admit(w, j, func(poolCtx context.Context) {
		runTask(s, poolCtx, j, func(ctx context.Context) (*CorunDoc, bool, error) {
			doc, err := s.pairAnalysis(ctx, cfg, a, b, s.cfg.OptWorkers)
			return doc, false, err
		}, s.pairs.put)
	}) {
		return
	}
	j.logger.Info("corun job accepted",
		"a", req.A, "b", req.B, "pair", key, "cache", cfg)
	writeJSON(w, http.StatusAccepted, j.view())
}

// computePair runs the six co-run simulations behind a pair document —
// baseline×baseline and optimized×baseline from each side's view
// (defensiveness and politeness), plus the deployed optimized×optimized
// pairing from both views (contention) — then adds the Eq-1 footprint
// predictions the scheduler consumes. Sides are canonicalized to sorted
// digest order so the document is identical for (a, b) and (b, a).
func (s *Server) computePair(ctx context.Context, cfg cachesim.Config, a, b *corunEntry, workers int) (*CorunDoc, error) {
	if b.res.Digest < a.res.Digest {
		a, b = b, a
	}
	sp := obs.StartSpan(ctx, "corun.replay")
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := func(l *layout.Layout, t *trace.Trace, wrap bool) *layout.Replayer {
		return layout.NewReplayer(l, t, cfg.LineBytes, wrap)
	}
	jobs := []cachesim.CorunJob{
		{Primary: rep(a.base, a.tr, false), Peer: rep(b.base, b.tr, true)}, // 0: baseline pairing, A's view
		{Primary: rep(a.opt, a.tr, false), Peer: rep(b.base, b.tr, true)},  // 1: A optimized, peer baseline
		{Primary: rep(b.base, b.tr, false), Peer: rep(a.base, a.tr, true)}, // 2: baseline pairing, B's view
		{Primary: rep(b.opt, b.tr, false), Peer: rep(a.base, a.tr, true)},  // 3: B optimized, peer baseline
		{Primary: rep(a.opt, a.tr, false), Peer: rep(b.opt, b.tr, true)},   // 4: deployed pairing, A's view
		{Primary: rep(b.opt, b.tr, false), Peer: rep(a.opt, a.tr, true)},   // 5: deployed pairing, B's view
	}
	res := cachesim.SimulateCorunBatch(cfg, jobs, workers)
	sp.SetAttr("sims", int64(len(jobs)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	curveA := a.curve(ctx, cfg.LineBytes, workers)
	curveB := b.curve(ctx, cfg.LineBytes, workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	capacity := float64(cfg.SizeBytes / cfg.LineBytes)
	predA := footprint.CorunMissRatio(curveA, curveB, capacity)
	predB := footprint.CorunMissRatio(curveB, curveA, capacity)
	side := func(e *corunEntry, baseRun, optRun, deployed cachesim.CorunResult, pred float64, curve *footprint.Curve) PairSide {
		solo := e.soloMiss(ctx, cfg)
		corun := deployed.PerThread[0].MissRatio()
		return PairSide{
			Digest:        e.res.Digest,
			Prog:          e.res.Prog,
			Optimizer:     e.res.Optimizer,
			MissSolo:      solo,
			MissCorun:     corun,
			Contention:    corun - solo,
			Defensiveness: stats.Reduction(baseRun.PerThread[0].MissRatio(), optRun.PerThread[0].MissRatio()),
			Politeness:    stats.Reduction(baseRun.PerThread[1].MissRatio(), optRun.PerThread[1].MissRatio()),
			PredMissRatio: pred,
			PredMisses:    pred * float64(curve.N),
		}
	}
	sideA := side(a, res[0], res[1], res[4], predA, curveA)
	sideB := side(b, res[2], res[3], res[5], predB, curveB)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &CorunDoc{
		Digest:   corunDigest(a.res.Digest, b.res.Digest, cfg),
		Cache:    cfg,
		A:        sideA,
		B:        sideB,
		PairCost: sideA.PredMisses + sideB.PredMisses,
		PeerLaps: [2]int{res[4].PeerLaps, res[5].PeerLaps},
	}, nil
}

// handleCorunDoc is GET /v1/corun/{digest}: a pair document by content
// address, mirroring GET /v1/layouts/{digest} for optimization results.
func (s *Server) handleCorunDoc(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if err := checkDigests(digest); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	doc, ok := s.pairs.get(r.Context(), digest)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no cached co-run analysis %q", digest))
		return
	}
	writeJSON(w, http.StatusOK, doc)
}
