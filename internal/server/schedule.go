package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"codelayout/internal/cachesim"
	"codelayout/internal/obs"
	"codelayout/internal/parallel"
	"codelayout/internal/schedule"
)

// scheduleStoreKey prefixes schedule documents in the durable store.
const scheduleStoreKey = "s-"

// scheduleRequest is the decoded body of POST /v1/schedule: N cached
// layout digests (repeats allowed — the same workload can occupy several
// slots) plus the core/socket topology to place them on and an optional
// cache geometry.
type scheduleRequest struct {
	Digests  []string          `json:"digests"`
	Topology schedule.Topology `json:"topology"`
	Cache    *cachesim.Config  `json:"cache,omitempty"`
}

// ScheduleDoc is the completed output of one schedule job: the pairwise
// Eq-1 interference matrix over the requested digests and the placement
// minimizing its total cost.
type ScheduleDoc struct {
	// Digest is the content address: SHA-256 over the digest list (in
	// request order), the topology, and the cache geometry.
	Digest   string            `json:"digest"`
	Cache    cachesim.Config   `json:"cache"`
	Topology schedule.Topology `json:"topology"`
	Digests  []string          `json:"digests"`
	// Labels names each digest "prog/optimizer" for table rendering.
	Labels []string `json:"labels"`
	// Matrix[i][j] is the pair cost of co-locating digests i and j: the
	// total Eq-1 predicted co-run misses of that pairing. Symmetric,
	// zero diagonal.
	Matrix [][]float64 `json:"matrix"`
	// Placement is the solver's domain assignment over matrix indices.
	Placement schedule.Placement `json:"placement"`
	// WorstCost is the exhaustive worst-case placement cost when the
	// instance is small enough to enumerate (WorstKnown); the spread
	// between it and Placement.Cost is what interference-aware placement
	// buys.
	WorstCost  float64 `json:"worstCost,omitempty"`
	WorstKnown bool    `json:"worstKnown"`
	// PairsComputed counts pair analyses simulated for this matrix;
	// PairsCached came from the content-addressed pair cache.
	PairsComputed int `json:"pairsComputed"`
	PairsCached   int `json:"pairsCached"`
	// ElapsedMS is the computing job's wall time; a hit returns the
	// stored document unchanged.
	ElapsedMS float64 `json:"elapsedMS"`
}

// scheduleJobRequest carries a validated /v1/schedule job to its worker.
type scheduleJobRequest struct {
	digests []string
	entries []*corunEntry // parallel to digests; repeats share pointers
	topo    schedule.Topology
	cfg     cachesim.Config
	key     string
}

// scheduleDigest derives the content address of a schedule request. The
// digest list is hashed in request order: permutations are different
// documents (matrix indices differ), only identical requests hit.
func scheduleDigest(digests []string, topo schedule.Topology, cfg cachesim.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "layoutd/schedule/v1\ntopo:%dx%d\ncache:%d/%d/%d\n",
		topo.Domains, topo.SlotsPerDomain, cfg.SizeBytes, cfg.Assoc, cfg.LineBytes)
	for _, d := range digests {
		fmt.Fprintf(h, "d:%s\n", d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// handleSchedule is POST /v1/schedule: compute the pairwise interference
// matrix over N cached layouts and a placement minimizing total Eq-1
// predicted misses. Runs as an async job; the matrix reuses pair
// documents across jobs via the content-addressed pair cache.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	ctx, sub := s.newSubmissionCtx(r)

	var req scheduleRequest
	if err := readJSON(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Digests) < 2 {
		httpError(w, http.StatusBadRequest, errors.New("need at least 2 layout digests to schedule"))
		return
	}
	if len(req.Digests) > s.cfg.MaxScheduleDigests {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%d digests exceed the per-request bound %d", len(req.Digests), s.cfg.MaxScheduleDigests))
		return
	}
	cfg, err := corunConfig(req.Cache)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Topology.Validate(len(req.Digests)); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Materialize each distinct digest once; repeated digests share the
	// entry (and its memoized curves).
	entries, status, err := s.resolveEntries(ctx, req.Digests)
	if err != nil {
		httpError(w, status, err)
		return
	}
	s.metrics.scheduleJobs.Inc()

	jr := &scheduleJobRequest{
		digests: req.Digests,
		entries: entries,
		topo:    req.Topology,
		cfg:     cfg,
		key:     scheduleDigest(req.Digests, req.Topology, cfg),
	}
	j := s.newJob(sub, jobKindSchedule, jr.key, fmt.Sprintf("schedule[%d]", len(req.Digests)), "")
	if doc, ok := s.schedules.get(ctx, jr.key); ok {
		s.answerHit(w, j, doc)
		return
	}
	// The pool task assembles the interference matrix (one pair document
	// per distinct digest pair, memoized via the pair cache), then solves
	// the placement.
	if !s.admit(w, j, func(poolCtx context.Context) {
		runTask(s, poolCtx, j, func(ctx context.Context) (*ScheduleDoc, bool, error) {
			doc, err := s.computeSchedule(ctx, jr)
			return doc, false, err
		}, s.schedules.put)
	}) {
		return
	}
	j.logger.Info("schedule job accepted",
		"digests", len(req.Digests), "topology", req.Topology, "key", jr.key)
	writeJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) computeSchedule(ctx context.Context, req *scheduleJobRequest) (*ScheduleDoc, error) {
	n := len(req.entries)
	msp := obs.StartSpan(ctx, "schedule.matrix")

	// Collect the distinct pair keys: repeated digests mean one document
	// can fill several matrix cells, so the compute list is deduplicated
	// before fanning out. Self-cells (i == j) are the zero diagonal, but
	// the same *digest* at two indices is a real self-pairing.
	type cell struct{ i, j int }
	firstCell := make(map[string]cell)
	keyAt := make([][]string, n)
	for i := range keyAt {
		keyAt[i] = make([]string, n)
	}
	for i := 0; i < n; i++ {
		for jx := i + 1; jx < n; jx++ {
			k := corunDigest(req.entries[i].res.Digest, req.entries[jx].res.Digest, req.cfg)
			keyAt[i][jx] = k
			keyAt[jx][i] = k
			if _, ok := firstCell[k]; !ok {
				firstCell[k] = cell{i, jx}
			}
		}
	}
	keys := make([]string, 0, len(firstCell))
	for k := range firstCell {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var mu sync.Mutex
	docs := make(map[string]*CorunDoc, len(keys))
	var computed, cached int
	// Pair analyses fan out across the job's analysis budget; each
	// analysis runs its simulations serially so the job's total
	// concurrency stays bounded by OptWorkers.
	err := parallel.ForEachCtx(ctx, s.cfg.OptWorkers, len(keys), func(ctx context.Context, idx int) error {
		k := keys[idx]
		if doc, ok := s.pairs.get(ctx, k); ok {
			s.metrics.pairHits.Inc()
			mu.Lock()
			docs[k] = doc
			cached++
			mu.Unlock()
			return nil
		}
		s.metrics.pairMisses.Inc()
		c := firstCell[k]
		doc, err := s.pairAnalysis(ctx, req.cfg, req.entries[c.i], req.entries[c.j], 1)
		if err != nil {
			return err
		}
		s.metrics.schedulePairs.Inc()
		s.pairs.put(ctx, doc)
		mu.Lock()
		docs[k] = doc
		computed++
		mu.Unlock()
		return nil
	})
	if err != nil {
		msp.End()
		return nil, err
	}
	matrix := make([][]float64, n)
	for i := range matrix {
		matrix[i] = make([]float64, n)
		for jx := range matrix[i] {
			if jx != i {
				matrix[i][jx] = docs[keyAt[i][jx]].PairCost
			}
		}
	}
	msp.SetAttr("pairs", int64(len(keys)))
	msp.SetAttr("computed", int64(computed))
	msp.End()

	ssp := obs.StartSpan(ctx, "schedule.solve")
	placement, err := schedule.Solve(ctx, matrix, req.topo)
	if err != nil {
		ssp.End()
		return nil, err
	}
	worst, worstKnown := schedule.Worst(matrix, req.topo)
	ssp.SetAttr("exact", boolAttr(placement.Exact))
	ssp.End()

	labels := make([]string, n)
	for i, e := range req.entries {
		labels[i] = e.res.Prog + "/" + e.res.Optimizer
	}
	doc := &ScheduleDoc{
		Digest:        req.key,
		Cache:         req.cfg,
		Topology:      req.topo,
		Digests:       req.digests,
		Labels:        labels,
		Matrix:        matrix,
		Placement:     placement,
		WorstKnown:    worstKnown,
		PairsComputed: computed,
		PairsCached:   cached,
	}
	if worstKnown {
		doc.WorstCost = worst.Cost
	}
	return doc, nil
}

func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
