package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"codelayout/internal/cluster"
	"codelayout/internal/core"
	"codelayout/internal/interp"
	"codelayout/internal/ir"
	"codelayout/internal/obs"
	"codelayout/internal/progen"
	"codelayout/internal/server"
	"codelayout/internal/store"
	"codelayout/internal/trace"
)

// Workload names. Later changes cite them, so they are fixed.
const (
	wlFreshFunc    = "fresh-func"
	wlFreshBB      = "fresh-bb"
	wlClusterReuse = "cluster-reuse"
)

var workloadNames = []string{wlFreshFunc, wlFreshBB, wlClusterReuse}

// funcOpts is fresh-func's optimizer set, in equal shares:
// func-affinity and func-trg support feed mode and so take the streamed
// submit path under the daemon's default stream window; func-callgraph
// and func-cmg take the buffered path.
var funcOpts = []string{"func-affinity", "func-callgraph", "func-trg", "func-cmg"}

// bbProgs are the main-suite programs fresh-bb draws from: the two
// whose streamed bb-trg job stays near a quarter second on a 40k-reference
// window. On the others (gcc, gobmk, povray, perlbench, xalancbmk, and
// sjeng at twice the cost) one bb-trg job takes 0.8-3 s, so a run would
// hold a handful of jobs and its median would move with the draw.
var bbProgs = []string{"429.mcf", "471.omnetpp"}

// bbCycle is fresh-bb's mix: two bb-affinity jobs for every bb-trg job,
// each program in turn. A bb-affinity job costs about the same on every
// input, a bb-trg job 2-5x more on some windows than on others; with
// two thirds of the jobs in one narrow bb-affinity band, the median
// always falls inside it. Jobs run on short windows: with whole
// profiles a run held about 65 jobs, and same-seed runs differed by a
// third; on these windows it holds about 220 and spreads about 6%.
var bbCycle = []struct {
	prog, opt string
	window    int // references
}{
	{"429.mcf", "bb-affinity", bbAffinityWindow},
	{"471.omnetpp", "bb-affinity", bbAffinityWindow},
	{"429.mcf", "bb-trg", bbTRGWindow},
	{"471.omnetpp", "bb-affinity", bbAffinityWindow},
	{"429.mcf", "bb-affinity", bbAffinityWindow},
	{"471.omnetpp", "bb-trg", bbTRGWindow},
}

// Trace windows. Every job uploads a contiguous window of a program's
// interpreted profile; moving the window gives a profile the cache has
// not seen. windowSlack is how far whole-profile windows may move.
const (
	windowSlack      = 16384
	bbAffinityWindow = 60000
	bbTRGWindow      = 15000
)

// setupRounds is how many times a run sets up each workload; setup_s is
// the median of the rounds and the last round's state is measured. A
// set-up takes about 0.2 s on fresh-bb, 0.9 s on fresh-func and 2.6 s
// on cluster-reuse; the shorter ones get more rounds, so each run's
// median rests on a few seconds of set-up.
var setupRounds = map[string]int{
	wlFreshFunc:    5,
	wlFreshBB:      9,
	wlClusterReuse: 3,
}

// Cluster timers: layoutd's -health-interval and -antientropy defaults.
const (
	healthInterval      = 2 * time.Second
	antiEntropyInterval = 30 * time.Second
)

// workloadConfig is one workload's serving configuration, recorded in
// every result file.
type workloadConfig struct {
	Clients             int    `json:"clients"`
	Nodes               int    `json:"nodes"`
	Replicas            int    `json:"replicas"`
	JobWorkers          int    `json:"jobWorkers"`
	OptWorkers          int    `json:"optWorkers"`
	StreamWindow        int64  `json:"streamWindow"`
	QueueDepth          int    `json:"queueDepth"`
	DurableStore        bool   `json:"durableStore"`
	HealthInterval      string `json:"healthInterval,omitempty"`
	AntiEntropyInterval string `json:"antiEntropyInterval,omitempty"`
	RuntimeSample       string `json:"runtimeSampleInterval"`
	Mix                 string `json:"mix"`
}

func configFor(wl string) workloadConfig {
	nproc := runtime.NumCPU()
	c := workloadConfig{
		Clients:       min(2, nproc),
		Nodes:         1,
		JobWorkers:    nproc, // layoutd -jobs 0: all cores
		OptWorkers:    1,     // layoutd -opt-workers default
		StreamWindow:  server.DefaultStreamWindow,
		QueueDepth:    server.DefaultQueueDepth,
		DurableStore:  true,
		RuntimeSample: obs.DefaultRuntimeSampleInterval.String(),
	}
	switch wl {
	case wlFreshFunc:
		c.Mix = "func-affinity, func-callgraph, func-trg, func-cmg in turn over the 8 main-suite programs"
	case wlFreshBB:
		c.Clients = 1
		c.OptWorkers = nproc
		c.Mix = "per 6 jobs: 4 bb-affinity (60k-reference windows), 2 bb-trg (15k windows), programs in turn"
	case wlClusterReuse:
		c.Nodes = 3
		c.Replicas = 2
		c.HealthInterval = healthInterval.String()
		c.AntiEntropyInterval = antiEntropyInterval.String()
		c.Mix = clusterMixDoc()
	}
	return c
}

// jobInput is one optimization request: a program, an optimizer and the
// trimmed basic-block trace uploaded for it.
type jobInput struct {
	prog string
	opt  string
	idx  int // fresh-* input index; the trace is rebuilt from it on demand
	tr   *trace.Trace
	body []byte // CLTR encoding of tr
}

func newInput(prog, opt string, syms []int32) (*jobInput, error) {
	tr := trace.New(syms).Trimmed()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("encoding %s trace: %w", prog, err)
	}
	return &jobInput{prog: prog, opt: opt, tr: tr, body: buf.Bytes()}, nil
}

// profiles holds the seed's interpreted profiles of every program a
// workload uses: several interpreter inputs per program, so a run's
// figures average over many inputs rather than lean on a few. The
// program receives only the traces generated here.
type profiles struct {
	progs  map[string]*ir.Program
	traces map[string][][]int32 // trimmed basic-block traces per program
	took   []time.Duration      // interp.Run time per profile
}

// profilesPerProg is how many interpreter inputs a workload profiles per
// program. A job's cost and miss reduction depend on its input (one
// bb-trg job costs 2-5x more on some inputs than on others), so the
// fresh workloads' run-level figures settle only when jobs spread over
// many inputs. cluster-reuse seeds at most four layouts per program.
func profilesPerProg(wl string) int {
	if wl == wlClusterReuse {
		return 4
	}
	return 16
}

func programsFor(wl string) []string {
	if wl == wlFreshBB {
		return bbProgs
	}
	return progen.MainSuiteNames
}

func newProfiles(wl string, seed int64) (*profiles, error) {
	p := &profiles{
		progs:  map[string]*ir.Program{},
		traces: map[string][][]int32{},
	}
	for _, name := range programsFor(wl) {
		prog, err := core.LoadProgram(name)
		if err != nil {
			return nil, err
		}
		p.progs[name] = prog
		n := profilesPerProg(wl)
		for j := range n {
			t0 := time.Now()
			res, err := interp.Run(prog, interp.Options{Seed: 1000 + seed*int64(n) + int64(j)})
			if err != nil {
				return nil, fmt.Errorf("profiling %s: %w", name, err)
			}
			if !res.Completed {
				return nil, fmt.Errorf("profiling %s: step cap reached", name)
			}
			p.took = append(p.took, time.Since(t0))
			p.traces[name] = append(p.traces[name], res.Blocks.Trimmed().Syms)
		}
	}
	return p, nil
}

// window returns the k-th window of prog's profiles: profiles take
// turns, and the window start moves from a seed-chosen base. n is the window length (capped at the profile's),
// or the profile minus windowSlack when n is 0.
func (p *profiles) window(prog string, n, base, k int) []int32 {
	all := p.traces[prog]
	syms := all[k%len(all)]
	if n == 0 {
		n = len(syms) - windowSlack
	}
	n = min(n, len(syms))
	span := len(syms) - n + 1
	// A golden-ratio stride spreads any run's windows evenly over the
	// profile whatever the base, so every run samples the same phases.
	stride := int(0.6180339887*float64(span)) | 1
	off := (base + k*stride) % span
	return syms[off : off+n]
}

// node is one in-process layoutd behind an httptest listener.
type node struct {
	id  string
	srv *server.Server
	ts  *httptest.Server
}

// swapHandler lets a listener exist (so the cluster's peer URLs are
// known) before its server does; until then it answers health polls.
type swapHandler struct{ h atomic.Value }

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := sh.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	if r.URL.Path == "/healthz" {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok"}`)
		return
	}
	http.Error(w, "starting", http.StatusServiceUnavailable)
}

// env is one set-up workload: its servers, its generated inputs, and the
// state the timed phase draws operations from.
type env struct {
	wl     string
	cfg    workloadConfig
	dir    string
	nodes  []*node
	prof   *profiles
	client *client
	base   int // seed-chosen window shift

	next atomic.Int64 // global operation counter: fixes the mix composition

	// clientHeap is the live heap, in MB, of the client's own set-up data
	// (programs, profiles, seeded inputs), read before the servers start;
	// heapPause is the garbage collection that read took, which set-up
	// time leaves out. retained counts the bytes the client keeps of
	// finished operations for the oracles. peak_heap_mb subtracts both,
	// so it covers the servers' heap.
	clientHeap float64
	heapPause  time.Duration
	retained   atomic.Int64
	replies    sync.Map // replyKey → the first hit or read reply for it

	// cluster-reuse state, built in setup.
	seeds     []*seeded
	hitSeeds  []int    // indices into seeds that hits resubmit
	pairs     [][2]int // seed pairs not scored in setup, in seed-shuffled order
	schedPool []int    // seeds whose pairs are all scored in setup
	pairNext  atomic.Int64
	hitNext   atomic.Int64
	readNext  atomic.Int64
	pairWraps atomic.Int64
	rngMu     sync.Mutex
	rng       *rand.Rand
}

// seeded is one layout optimized during cluster-reuse set-up.
type seeded struct {
	in     *jobInput
	digest string
	result []byte // canonical JSON of the seeding job's result
}

func newEnv(wl string, seed int64, dir string) (*env, error) {
	prof, err := newProfiles(wl, seed)
	if err != nil {
		return nil, err
	}
	e := &env{
		wl:   wl,
		cfg:  configFor(wl),
		dir:  dir,
		prof: prof,
		base: int(seed*104729) & 0x7fffffff,
		rng:  rand.New(rand.NewSource(seed)),
	}
	var ins []*jobInput
	if wl == wlClusterReuse {
		if ins, err = e.seedInputs(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	e.clientHeap = liveHeapMB()
	e.heapPause = time.Since(t0)
	if err := e.startNodes(); err != nil {
		e.close()
		return nil, err
	}
	e.client = newClient(e.nodes)
	if wl == wlClusterReuse {
		if err := e.seedCluster(ins); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *env) startNodes() error {
	n := e.cfg.Nodes
	swaps := make([]*swapHandler, n)
	peers := make([]cluster.Peer, n)
	for i := range n {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		id := fmt.Sprintf("n%d", i+1)
		e.nodes = append(e.nodes, &node{id: id, ts: ts})
		peers[i] = cluster.Peer{ID: id, URL: ts.URL}
	}
	for i, nd := range e.nodes {
		dir := filepath.Join(e.dir, nd.id)
		st, err := store.Open(store.Config{Dir: dir, Logf: func(string, ...any) {}})
		if err != nil {
			return fmt.Errorf("opening store for %s: %w", nd.id, err)
		}
		cfg := server.Config{
			JobWorkers:   e.cfg.JobWorkers,
			QueueDepth:   e.cfg.QueueDepth,
			OptWorkers:   e.cfg.OptWorkers,
			StreamWindow: e.cfg.StreamWindow,
			Store:        st,
		}
		if n > 1 {
			cl, err := cluster.New(cluster.Config{
				SelfID:              nd.id,
				Peers:               peers,
				ReplicationFactor:   e.cfg.Replicas,
				HealthInterval:      healthInterval,
				AntiEntropyInterval: antiEntropyInterval,
				Logf:                func(string, ...any) {},
			})
			if err != nil {
				st.Close()
				return fmt.Errorf("cluster member %s: %w", nd.id, err)
			}
			cfg.Cluster = cl
			cfg.NodeID = nd.id
		}
		nd.srv = server.New(cfg)
		swaps[i].h.Store(nd.srv.Handler())
	}
	return nil
}

// close stops every server and listener and removes the stores.
func (e *env) close() {
	for _, nd := range e.nodes {
		nd.ts.Close()
		if nd.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			nd.srv.Shutdown(ctx)
			cancel()
		}
	}
	if e.client != nil {
		e.client.hc.CloseIdleConnections()
	}
	os.RemoveAll(e.dir)
}

// load returns in with its trace, rebuilding a fresh input's trace when
// the timed phase has released it. The loop does not keep a thousand
// uploads alive, so peak_rss_mb measures the service, not the client.
func (e *env) load(in *jobInput) (*jobInput, error) {
	if in.tr != nil {
		return in, nil
	}
	return e.freshInput(in.idx)
}

// cycleLen is the length of the workload's operation cycle: any run of
// that many consecutive turns holds the whole mix.
func (e *env) cycleLen() int {
	switch e.wl {
	case wlFreshBB:
		return len(bbCycle)
	case wlClusterReuse:
		return len(clusterMix)
	}
	return len(funcOpts) * len(progen.MainSuiteNames)
}

// freshInput builds the i-th input of a fresh-* workload. The global
// counter i fixes the composition: optimizers and programs take turns,
// so every run holds the same mix whatever its seed.
func (e *env) freshInput(i int) (*jobInput, error) {
	progs := programsFor(e.wl)
	if e.wl == wlFreshBB {
		c := bbCycle[i%len(bbCycle)]
		in, err := newInput(c.prog, c.opt, e.prof.window(c.prog, c.window, e.base, i))
		if in != nil {
			in.idx = i
		}
		return in, err
	}
	opt := funcOpts[i%len(funcOpts)]
	prog := progs[(i/len(funcOpts))%len(progs)]
	k := i / (len(funcOpts) * len(progs))
	in, err := newInput(prog, opt, e.prof.window(prog, 0, e.base, k))
	if in != nil {
		in.idx = i
	}
	return in, err
}
