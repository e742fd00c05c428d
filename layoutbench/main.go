// Command layoutbench is the repository's benchmark: it runs layoutd
// in-process (server.New behind httptest; three cluster.New members for
// cluster-reuse), drives it with a closed-loop client over interpreted
// profiles generated from --seed, checks every output against an
// oracle, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics). See README.md for the workloads and metrics.
//
//	layoutbench --workload fresh-func --seed 1 --seconds 10 --trace 0
//	layoutbench compare -parent <dir> -change <dir>
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"codelayout/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// metricDef names one reported metric. Names and units are fixed here;
// BENCHMARK.json lists the same names with their bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are reported on every workload by an untraced run. On
// cluster-reuse every optimization job is a cache hit, so jobs_per_s and
// job_p50_ms there count hits.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// printedOnly are end-to-end metrics printed and kept in the result file
// but not in the last line: the first four exist on cluster-reuse only;
// miss_reduction_pct moves 10-25% between seeds with the interpreter
// inputs, more than any bound may allow, and the oracles already hold
// every layout to the serial pipeline's; peak_rss_mb moves 10-20%
// between runs of one seed, so peak_heap_mb stands in for it; error_rate
// is the last line's failed over attempted.
var printedOnly = []metricDef{
	{"hit_p50_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"corun_p50_ms", "ms", "lower"},
	{"schedule_p50_ms", "ms", "lower"},
	{"miss_reduction_pct", "%", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"error_rate", "ratio", "lower"},
}

// perLayer are reported on every workload by a traced run.
var perLayer = []metricDef{
	{"trace.decode_ms", "ms", "lower"},
	{"trace.digest_ms", "ms", "lower"},
	{"trace.prune_ms", "ms", "lower"},
	{"affinity.hierarchy_ms", "ms", "lower"},
	{"affinity.feed_ms", "ms", "lower"},
	{"affinity.alloc_mb", "MB", "lower"},
	{"trg.build_ms", "ms", "lower"},
	{"trg.feed_ms", "ms", "lower"},
	{"trg.edges", "count", "lower"},
	{"trg.reduce_ms", "ms", "lower"},
	{"layout.emit_ms", "ms", "lower"},
	{"cachesim.replay_ms", "ms", "lower"},
	{"cachesim.corun_ms", "ms", "lower"},
	{"footprint.curve_ms", "ms", "lower"},
	{"schedule.solve_ms", "ms", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"server.hit_share", "ratio", "higher"},
	{"server.hit_excess_ms", "ms", "lower"},
	{"interp.profile_ms", "ms", "lower"},
	{"bench.trace_overhead_ms", "ms", "lower"},
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("layoutbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed: programs' interpreter inputs and trace windows")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *wl) || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "layoutbench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	cfg := runConfig{workload: *wl, seed: *seed, seconds: *seconds, traced: *traced == 1, out: *out}
	res, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layoutbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layoutbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is one metric in the last output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what every run writes to --out: the last line plus the
// provenance and the metrics kept out of the last line.
type resultFile struct {
	Provenance provenance             `json:"provenance"`
	Line       resultLine             `json:"result"`
	Extra      map[string]metricValue `json:"extra"`
	Notes      []string               `json:"notes,omitempty"`
}

func run(cfg runConfig, stdout io.Writer) (*resultLine, error) {
	runDir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set-up, several times: the median is setup_s, the last is measured.
	var e *env
	var setups []float64
	var profileMS []float64
	for r := range setupRounds[cfg.workload] {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC() // every round starts from a collected heap
		t0 := time.Now()
		e, err = newEnv(cfg.workload, cfg.seed, filepath.Join(runDir, strconv.Itoa(r)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (time.Since(t0) - e.heapPause).Seconds())
		for _, d := range e.prof.took {
			profileMS = append(profileMS, ms(d))
		}
	}
	defer e.close()
	runtime.GC()
	debug.FreeOSMemory()

	// A warm-up tenth of the run fills the kernels' arenas, the heap and
	// the connection pools before anything is timed; its operations are
	// checked like the rest.
	dur := time.Duration(cfg.seconds * float64(time.Second))
	warm := e.loop(dur/10, false)
	var ph, traced *phase
	if cfg.traced {
		// Whole mix cycles alternate between untraced and traced in one
		// phase, so the tracing overhead compares operations measured
		// over the same time.
		ph, traced = e.loop(dur, true).split()
	} else {
		ph = e.loop(dur, false)
	}

	chk := newChecker(e)
	all := append(slices.Clone(warm.ops), ph.ops...)
	if traced != nil {
		all = append(all, traced.ops...)
	}
	chk.check(all)
	seedFailures := chk.checkSeeds()

	var notes []string
	for _, o := range all {
		if o.err != nil && len(notes) < 5 {
			notes = append(notes, fmt.Sprintf("%s failed: %v", o.kind, o.err))
		}
	}
	for o, msg := range chk.failures {
		if len(notes) < 10 {
			notes = append(notes, fmt.Sprintf("oracle mismatch (%s): %s", o.kind, msg))
		}
	}
	notes = append(notes, seedFailures...)
	if w := e.pairWraps.Load(); w > 0 {
		notes = append(notes, fmt.Sprintf("%d co-runs re-scored a pair (unscored pairs ran out)", w))
	}

	failed := 0
	for _, o := range all {
		if o.err != nil || chk.failures[o] != "" {
			failed++
		}
	}
	failed += len(seedFailures)
	attempted := len(all) + len(e.seeds)

	m := e2eMetrics(e, ph, chk)
	m["setup_s"] = median(setups)
	m["error_rate"] = float64(failed) / float64(max(attempted, 1))

	line := resultLine{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	extra := map[string]metricValue{}
	fmt.Fprintf(stdout, "layoutbench %s seed=%d seconds=%g trace=%d  (nproc=%d GOMAXPROCS=%d %s)\n",
		cfg.workload, cfg.seed, cfg.seconds, boolInt(cfg.traced), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	printOpCounts(stdout, all, chk)

	if !cfg.traced {
		printE2E(stdout, e, m, ph)
		for _, d := range endToEnd {
			line.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
		}
		for _, d := range printedOnly {
			if v, ok := m[d.Name]; ok {
				extra[d.Name] = metricValue{v, d.Unit}
			}
		}
		// compare reads the percentile behind job_tail_ms from here.
		extra["job_tail_pct"] = metricValue{m["job_tail_pct"], "percentile"}
		extra["job_tail_beyond"] = metricValue{m["job_tail_beyond"], "count"}
		if m["job_tail_beyond"] < minBeyond {
			notes = append(notes, fmt.Sprintf("job_tail_ms: only %d samples beyond p%g", int(m["job_tail_beyond"]), m["job_tail_pct"]))
		}
	} else {
		lm, lnotes, layerSpans, err := layerMetrics(e, ph, traced, profileMS, stdout)
		if err != nil {
			return nil, err
		}
		notes = append(notes, lnotes...)
		for _, d := range perLayer {
			line.Metrics[d.Name] = metricValue{lm[d.Name], d.Unit}
		}
		// The cluster layer's figures exist on cluster-reuse only, so
		// they stay out of the last line.
		for name, v := range lm {
			if strings.HasPrefix(name, "cluster.forward_ms.") {
				extra[name] = metricValue{v, "ms"}
			} else if name == "cluster.forwarded_share" {
				extra[name] = metricValue{v, "ratio"}
			}
		}
		if err := writeSpans(cfg, clientSpans(traced), layerSpans); err != nil {
			return nil, err
		}
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	if err := writeResult(cfg, resultFile{
		Provenance: collectProvenance(cfg, e.cfg),
		Line:       line,
		Extra:      extra,
		Notes:      notes,
	}); err != nil {
		return nil, err
	}
	return &line, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// phase is one timed closed-loop phase.
type phase struct {
	ops      []*op
	start    time.Time
	elapsed  time.Duration // start to the last completion
	peakRSS  float64       // MB, sampled during the phase
	peakHeap float64       // MB of the servers' live heap, sampled during the phase
}

// split divides a traced phase into its untraced and traced operations.
func (p *phase) split() (untraced, traced *phase) {
	untraced, traced = &phase{}, &phase{}
	*untraced, *traced = *p, *p
	untraced.ops, traced.ops = nil, nil
	for _, o := range p.ops {
		if o.traced() {
			traced.ops = append(traced.ops, o)
		} else {
			untraced.ops = append(untraced.ops, o)
		}
	}
	return untraced, traced
}

// loop runs the workload's closed loop: each client sends its next
// operation when the previous one has completed, until dur has passed.
// With traced set, the operations of every other mix cycle record spans.
func (e *env) loop(dur time.Duration, traced bool) *phase {
	p := &phase{start: time.Now()}
	deadline := p.start.Add(dur)
	stop := make(chan struct{})
	memDone := make(chan struct{})
	go func() {
		p.peakRSS, p.peakHeap = e.sampleMemory(stop)
		close(memDone)
	}()

	perClient := make([][]*op, e.cfg.Clients)
	var wg sync.WaitGroup
	for c := range e.cfg.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				i := int(e.next.Add(1) - 1)
				o := &op{client: c}
				if traced && (i/e.cycleLen())%2 == 1 {
					o.traceID = obs.NewTraceID()
				}
				if e.wl == wlClusterReuse {
					e.reuseOp(o, i)
					o.node = (c + k) % len(e.nodes)
				} else {
					o.kind = kindJob
					o.in, o.err = e.freshInput(i)
				}
				if o.err == nil {
					e.runOp(o)
				}
				if o.kind == kindJob && o.in != nil {
					o.in.tr, o.in.body = nil, nil
				}
				e.keep(o)
				perClient[c] = append(perClient[c], o)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-memDone
	for _, ops := range perClient {
		p.ops = append(p.ops, ops...)
	}
	sort.Slice(p.ops, func(i, j int) bool { return p.ops[i].start.Before(p.ops[j].start) })
	for _, o := range p.ops {
		if d := o.end.Sub(p.start); d > p.elapsed {
			p.elapsed = d
		}
	}
	return p
}

// sampleMemory samples the process every 10 ms until stop closes and
// returns, in MB, the largest resident set of the whole process and the
// servers' largest live heap: the heap the last garbage collection found
// reachable, less the client's set-up data and the bytes it retains of
// finished operations. The heap is read after each collection, when it
// is fresh. Between runs of one seed the resident peak moves by 10-20%
// with where collections happen to fall; the live-heap peak moves less.
func (e *env) sampleMemory(stop <-chan struct{}) (rss, heap float64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	cycles := uint64(math.MaxUint64)
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if c := s[1].Value.Uint64(); c != cycles {
			cycles = c
			live := float64(s[0].Value.Uint64()) / (1 << 20)
			heap = math.Max(heap, live-e.clientHeap-float64(e.retained.Load())/(1<<20))
		}
		rss = math.Max(rss, readRSS())
		select {
		case <-stop:
			return rss, heap
		case <-t.C:
		}
	}
}

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// keep counts what the client retains of a finished operation for the
// oracles. A hit or read whose reply equals the first reply of its kind
// for its seed shares that reply's bytes, so thousands of reads of the
// same layouts do not pile up; every reply is still checked after the
// phase.
func (e *env) keep(o *op) {
	var shared bool
	switch o.kind {
	case kindHit:
		o.view.Result, shared = e.share(o.kind, o.seed, o.view.Result)
	case kindRead:
		o.raw, shared = e.share(o.kind, o.seed, o.raw)
	}
	n := int(unsafe.Sizeof(*o)) + len(o.view.ID) + len(o.view.Status) + len(o.view.Digest) +
		len(o.view.TraceID) + len(o.view.Error) + cap(o.spans)*int(unsafe.Sizeof(span{})) +
		cap(o.view.Corun) + cap(o.view.Schedule)
	if !shared {
		n += cap(o.view.Result) + cap(o.raw)
	}
	e.retained.Add(int64(n))
}

type replyKey struct {
	kind string
	seed int
}

// share returns the first reply stored for kind and seed, and true, if
// b equals it; otherwise b, and false.
func (e *env) share(kind string, seed int, b []byte) ([]byte, bool) {
	if len(b) == 0 {
		return b, false
	}
	first, loaded := e.replies.LoadOrStore(replyKey{kind, seed}, b)
	if f := first.([]byte); loaded && bytes.Equal(f, b) {
		return f, true
	}
	return b, false
}

func readRSS() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// latencies returns the latencies, in ms, of the successful operations
// of the given kinds that passed their oracle.
func latencies(ops []*op, chk *checker, kinds ...string) []float64 {
	var out []float64
	for _, o := range ops {
		if o.err == nil && chk.failures[o] == "" && slices.Contains(kinds, o.kind) {
			out = append(out, ms(o.latency()))
		}
	}
	return out
}

func e2eMetrics(e *env, p *phase, chk *checker) map[string]float64 {
	m := map[string]float64{}
	secs := p.elapsed.Seconds()
	jobs := latencies(p.ops, chk, kindJob, kindHit)
	all := latencies(p.ops, chk, kindJob, kindHit, kindRead, kindCorun, kindSchedule)
	m["jobs_per_s"] = float64(len(jobs)) / secs
	m["ops_per_s"] = float64(len(all)) / secs
	m["job_p50_ms"] = median(jobs)
	pct := tailPct[e.wl]
	v, beyond := tail(jobs, pct)
	m["job_tail_ms"] = v
	m["job_tail_pct"] = pct
	m["job_tail_beyond"] = float64(beyond)
	var red []float64
	for _, o := range p.ops {
		if o.err == nil && (o.kind == kindJob || o.kind == kindHit) {
			var res resultDoc
			if json.Unmarshal(o.view.Result, &res) == nil {
				red = append(red, 100*res.MissReduction)
			}
		}
	}
	m["miss_reduction_pct"] = mean(red)
	m["peak_rss_mb"] = p.peakRSS
	m["peak_heap_mb"] = p.peakHeap
	if e.wl == wlClusterReuse {
		m["hit_p50_ms"] = median(latencies(p.ops, chk, kindHit))
		m["read_p50_ms"] = median(latencies(p.ops, chk, kindRead))
		m["corun_p50_ms"] = median(latencies(p.ops, chk, kindCorun))
		m["schedule_p50_ms"] = median(latencies(p.ops, chk, kindSchedule))
	}
	return m
}

func printOpCounts(w io.Writer, ops []*op, chk *checker) {
	count := map[string][3]int{}
	for _, o := range ops {
		c := count[o.kind]
		c[0]++
		if o.err != nil {
			c[1]++
		}
		if chk.failures[o] != "" {
			c[2]++
		}
		count[o.kind] = c
	}
	kinds := make([]string, 0, len(count))
	for k := range count {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := count[k]
		fmt.Fprintf(w, "  ops %-9s attempted %5d  failed %d  oracle mismatches %d\n", k, c[0], c[1], c[2])
	}
	fmt.Fprintf(w, "  naive func-affinity checks %d\n", chk.naive)
}

// printE2E prints the end-to-end metrics that apply to the workload,
// one per line with its unit.
func printE2E(w io.Writer, e *env, m map[string]float64, p *phase) {
	wl := e.wl
	row := func(name, unit string, note string) {
		fmt.Fprintf(w, "  %-20s %12.4f %-6s %s\n", name, m[name], unit, note)
	}
	fmt.Fprintf(w, "end-to-end (%s, %d ops over %.2f s)\n", wl, len(p.ops), p.elapsed.Seconds())
	tailNote := fmt.Sprintf("p%g, %d samples beyond", m["job_tail_pct"], int(m["job_tail_beyond"]))
	if wl == wlClusterReuse {
		printTimeShares(w, p)
		row("hit_p50_ms", "ms", "")
		row("read_p50_ms", "ms", "")
		row("corun_p50_ms", "ms", "")
		row("schedule_p50_ms", "ms", "")
		row("ops_per_s", "1/s", "")
		row("jobs_per_s", "1/s", "hits only")
		row("job_p50_ms", "ms", "hits only")
		row("job_tail_ms", "ms", "hits only, "+tailNote)
		row("miss_reduction_pct", "%", "of the results hits returned")
	} else {
		row("jobs_per_s", "1/s", "")
		row("job_p50_ms", "ms", "")
		row("job_tail_ms", "ms", tailNote)
		row("miss_reduction_pct", "%", "")
		row("ops_per_s", "1/s", "every op is a job")
	}
	row("error_rate", "ratio", "")
	printByOptimizer(w, p)
	row("setup_s", "s", fmt.Sprintf("median of %d set-ups", setupRounds[wl]))
	row("peak_heap_mb", "MB", "servers' live heap: the process's less the client's, sampled in the timed phase")
	row("peak_rss_mb", "MB", "resident set of the whole process, sampled in the timed phase")
	fmt.Fprintf(w, "    (client heap: %.1f MB of set-up data, %.1f MB retained of finished operations)\n",
		e.clientHeap, float64(e.retained.Load())/(1<<20))
}

// printTimeShares prints each operation kind's latency quartiles and
// its share of the clients' time, the figures cluster-reuse's mix is set
// from.
func printTimeShares(w io.Writer, p *phase) {
	by := map[string][]float64{}
	var total float64
	for _, o := range p.ops {
		by[o.kind] = append(by[o.kind], ms(o.latency()))
		total += ms(o.latency())
	}
	for _, s := range clusterShares {
		xs := by[s.kind]
		q1, q2, q3 := quartiles(xs)
		var sum float64
		for _, x := range xs {
			sum += x
		}
		fmt.Fprintf(w, "    %-9s n=%-6d q1/p50/q3 %8.3f %8.3f %8.3f ms  share of client time %5.1f%%\n", s.kind, len(xs), q1, q2, q3, 100*sum/total)
	}
}

// printByOptimizer breaks the job latencies down by optimizer and
// program, so a mix whose median falls between modes shows it.
func printByOptimizer(w io.Writer, p *phase) {
	by := map[string][]float64{}
	for _, o := range p.ops {
		if o.err == nil && o.in != nil {
			by[o.in.opt] = append(by[o.in.opt], ms(o.latency()))
			by[o.in.opt+" "+o.in.prog] = append(by[o.in.opt+" "+o.in.prog], ms(o.latency()))
		}
	}
	keys := make([]string, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		q1, q2, q3 := quartiles(by[k])
		fmt.Fprintf(w, "    %-28s n=%-4d q1/p50/q3 %8.2f %8.2f %8.2f ms\n", k, len(by[k]), q1, q2, q3)
	}
}

func writeResult(cfg runConfig, rf resultFile) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", cfg.workload, cfg.seed, boolInt(cfg.traced), time.Now().UnixNano())
	return os.WriteFile(filepath.Join(cfg.out, name), raw, 0o644)
}

// provenance records the hardware, toolchain, code and settings behind
// a result.
type provenance struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpuModel"`
	GoVersion  string         `json:"goVersion"`
	OSArch     string         `json:"osArch"`
	Commit     string         `json:"commit"`
	Time       string         `json:"time"`
	Server     workloadConfig `json:"server"`
}

func collectProvenance(cfg runConfig, wc workloadConfig) provenance {
	return provenance{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.traced,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit(),
		Time:       time.Now().UTC().Format(time.RFC3339),
		Server:     wc,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the code measured: the sha256 of the module's Go
// sources and go.mod files under the working directory (the checkout
// root), which is defined with or without a git repository.
func commit() string {
	h := newTreeHash()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			return h.add(path)
		}
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return "tree-sha256:" + h.sum()
}

// writeSpans writes the traced run's spans as JSON lines: the client's
// spans around each request, then the layer replay's, renumbered so
// span IDs are unique in the file.
func writeSpans(cfg runConfig, client, layer []span) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range layer {
		layer[i].ID += len(client)
		if layer[i].Parent != 0 {
			layer[i].Parent += len(client)
		}
	}
	for _, s := range append(client, layer...) {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	name := fmt.Sprintf("%s-seed%d-spans-%d.jsonl", cfg.workload, cfg.seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(cfg.out, name), buf.Bytes(), 0o644)
}

// treeHash hashes a set of files by path and content.
type treeHash struct{ h hash.Hash }

func newTreeHash() *treeHash { return &treeHash{sha256.New()} }

func (t *treeHash) add(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(t.h, "%s\x00%d\x00", filepath.ToSlash(path), len(raw))
	t.h.Write(raw)
	return nil
}

func (t *treeHash) sum() string { return hex.EncodeToString(t.h.Sum(nil))[:16] }
