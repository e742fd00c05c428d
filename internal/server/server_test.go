package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/layout"
	"codelayout/internal/obs"
	"codelayout/internal/trace"
)

// testProg is the cheapest suite program to generate and profile.
const testProg = "458.sjeng"

var (
	traceOnce  sync.Once
	traceBytes []byte
	traceProf  *core.Profile
	traceErr   error
)

// recordedTrace profiles testProg once and returns its trimmed
// basic-block trace encoded as CLTR bytes — exactly what
// `tracedump -record` would have written.
func recordedTrace(t *testing.T) ([]byte, *core.Profile) {
	t.Helper()
	traceOnce.Do(func() {
		p, err := core.LoadProgram(testProg)
		if err != nil {
			traceErr = err
			return
		}
		prof, err := core.ProfileProgram(p, core.TrainSeed)
		if err != nil {
			traceErr = err
			return
		}
		var buf bytes.Buffer
		if _, err := prof.Blocks.Trimmed().WriteTo(&buf); err != nil {
			traceErr = err
			return
		}
		traceBytes = buf.Bytes()
		traceProf = prof
	})
	if traceErr != nil {
		t.Fatal(traceErr)
	}
	return traceBytes, traceProf
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func submitRaw(t *testing.T, ts *httptest.Server, body []byte, query string) (jobView, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs?"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("bad job JSON %s: %v", raw, err)
		}
	}
	return v, resp.StatusCode
}

func errorBody(t *testing.T, ts *httptest.Server, body []byte, query string) (string, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs?"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &v)
	return v.Error, resp.StatusCode
}

func waitJob(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == StatusDone || v.Status == StatusFailed || v.Status == StatusCanceled {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobView{}
}

// scrapeMetrics fetches /metrics and parses it with the strict
// Prometheus text parser, linting the whole exposition — every scrape
// in the suite revalidates the full format, not just the lines a test
// happens to look at.
func scrapeMetrics(t *testing.T, ts *httptest.Server) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	exp, err := obs.LintPrometheusText(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("strict parse/lint of /metrics failed: %v\n%s", err, raw)
	}
	return exp
}

func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	exp := scrapeMetrics(t, ts)
	for _, s := range exp.Series {
		if s.Name == name && len(s.Labels) == 0 {
			return s.Value
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// TestEndToEnd is the acceptance path: submit a recorded trace, poll
// the job, and check the result against a direct in-process run of the
// same optimizer on the same trace.
func TestEndToEnd(t *testing.T) {
	raw, prof := recordedTrace(t)
	_, ts := newTestServer(t, Config{JobWorkers: 2, QueueDepth: 8, OptWorkers: 1})

	const optName = "func-affinity"
	v, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt="+optName)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if v.Status != StatusQueued && v.Status != StatusRunning {
		t.Fatalf("fresh job status %q", v.Status)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job failed: %+v", done)
	}
	res := done.Result
	if res == nil {
		t.Fatal("done job has no result")
	}

	// Reference: the same pipeline, run directly.
	tr, err := trace.ReadFrom(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.OptimizerByName(optName)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 1
	refProf := &core.Profile{Prog: prof.Prog, Blocks: tr}
	l, rep, err := opt.Optimize(refProf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Report.Sequence, rep.Sequence) {
		t.Error("served sequence differs from direct Optimize call")
	}
	if res.Report.SeqLen != rep.SeqLen || res.Report.TraceLen != rep.TraceLen {
		t.Errorf("served report %+v != direct %+v", res.Report, rep)
	}
	cfg := cachesim.L1IDefault
	wantBefore := cachesim.SimulateSolo(cfg,
		layout.NewReplayer(layout.Original(prof.Prog), tr, cfg.LineBytes, false)).Stats.MissRatio()
	wantAfter := cachesim.SimulateSolo(cfg,
		layout.NewReplayer(l, tr, cfg.LineBytes, false)).Stats.MissRatio()
	if res.MissBefore != wantBefore || res.MissAfter != wantAfter {
		t.Errorf("served miss ratios %v/%v != direct %v/%v",
			res.MissBefore, res.MissAfter, wantBefore, wantAfter)
	}
	if res.MissAfter >= res.MissBefore {
		t.Errorf("optimization did not reduce simulated misses: %v -> %v", res.MissBefore, res.MissAfter)
	}
	if res.TraceDigest != tr.Digest() {
		t.Errorf("trace digest %s != canonical %s", res.TraceDigest, tr.Digest())
	}
}

// TestCacheHit: resubmitting the identical trace+optimizer completes
// instantly from the content-addressed cache, visible in /metrics, and
// the layout stays addressable via /v1/layouts/{digest}.
func TestCacheHit(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1})

	v1, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-trg")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	first := waitJob(t, ts, v1.ID)
	if first.Status != StatusDone {
		t.Fatalf("first job failed: %+v", first)
	}
	if got := metricValue(t, ts, "layoutd_cache_hits_total"); got != 0 {
		t.Fatalf("cache hits before resubmit = %v", got)
	}

	v2, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-trg")
	if code != http.StatusAccepted {
		t.Fatalf("resubmit status %d, want 202", code)
	}
	v2 = waitJob(t, ts, v2.ID)
	if !v2.Cached || v2.Status != StatusDone || v2.Result == nil {
		t.Fatalf("resubmit not served from cache: %+v", v2)
	}
	if v2.Digest != v1.Digest {
		t.Fatalf("digest changed across identical submissions: %s vs %s", v2.Digest, v1.Digest)
	}
	if got := metricValue(t, ts, "layoutd_cache_hits_total"); got != 1 {
		t.Fatalf("cache_hits_total = %v, want 1", got)
	}
	if got := metricValue(t, ts, "layoutd_jobs_completed_total"); got != 1 {
		t.Fatalf("jobs_completed_total = %v, want 1 (cache hit must not recompute)", got)
	}

	// A different optimizer is a different content address.
	v3, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-callgraph")
	if code != http.StatusAccepted || v3.Digest == v1.Digest {
		t.Fatalf("distinct optimizer shared a digest (code %d)", code)
	}
	waitJob(t, ts, v3.ID)

	// Fetch by content address.
	resp, err := http.Get(ts.URL + "/v1/layouts/" + v1.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/layouts/%s = %d", v1.Digest, resp.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Optimizer != "func-trg" || len(res.Report.Sequence) == 0 {
		t.Fatalf("cached layout lookup returned %+v", res)
	}
}

// TestMultipartSubmission exercises the streaming multipart path with
// params carried as form fields.
func TestMultipartSubmission(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})

	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	if err := mw.WriteField("prog", testProg); err != nil {
		t.Fatal(err)
	}
	if err := mw.WriteField("opt", "func-callgraph"); err != nil {
		t.Fatal(err)
	}
	fw, err := mw.CreateFormFile("trace", "t.trace")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	mw.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("multipart submit status %d: %s", resp.StatusCode, raw)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("multipart job failed: %+v", done)
	}
}

// TestQueueFull429: with one slow worker and a one-deep queue, a
// submission of every job kind — optimize, co-run, schedule — is shed
// with 429 + Retry-After rather than queued unboundedly, counted as
// rejected, and not left behind as a tracked job.
func TestQueueFull429(t *testing.T) {
	raw, _ := recordedTrace(t)
	s, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 1, OptWorkers: 1})
	// Two cached layouts for the co-run and schedule submissions.
	dA := submitDone(t, ts, "func-affinity")
	dB := submitDone(t, ts, "func-trg")

	started := make(chan struct{}, 8)
	release := make(chan struct{})
	real := s.optimize
	s.optimize = func(ctx context.Context, req *jobRequest) (*Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return real(ctx, req)
	}

	// Occupy the worker, then the queue slot. Distinct prune params keep
	// each submission out of the others' content address.
	v1, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=100")
	if code != http.StatusAccepted {
		t.Fatalf("submit 1 status %d", code)
	}
	<-started
	_, code = submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=101")
	if code != http.StatusAccepted {
		t.Fatalf("submit 2 status %d", code)
	}

	jsonBody := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for i, c := range []struct {
		kind, path string
		body       []byte
	}{
		{"optimize", "/v1/jobs?prog=" + testProg + "&opt=func-affinity&prune=102", raw},
		{"corun", "/v1/corun", jsonBody(map[string]any{"a": dA, "b": dB})},
		{"schedule", "/v1/schedule", jsonBody(map[string]any{
			"digests": []string{dA, dB}, "topology": map[string]int{"domains": 1, "slotsPerDomain": 2}})},
	} {
		tracked := s.JobsTracked()
		resp, body := doReq(t, http.MethodPost, ts.URL+c.path, c.body, nil)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429: %s", c.kind, resp.StatusCode, body)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("%s: Retry-After %q, want 1", c.kind, got)
		}
		if !strings.Contains(string(body), "queue full") {
			t.Errorf("%s: 429 body %q", c.kind, body)
		}
		if got := metricValue(t, ts, "layoutd_jobs_rejected_total"); got != float64(i+1) {
			t.Errorf("%s: jobs_rejected_total = %v, want %d", c.kind, got, i+1)
		}
		if got := s.JobsTracked(); got != tracked {
			t.Errorf("%s: JobsTracked = %d after rejection, want %d", c.kind, got, tracked)
		}
	}
	close(release)
	if done := waitJob(t, ts, v1.ID); done.Status != StatusDone {
		t.Fatalf("job 1 failed after release: %+v", done)
	}
}

// TestShutdownDrainsInFlight: Shutdown waits for queued and running
// jobs to finish, and post-shutdown submissions are rejected.
func TestShutdownDrainsInFlight(t *testing.T) {
	raw, _ := recordedTrace(t)
	s, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})

	entered := make(chan struct{}, 8)
	real := s.optimize
	s.optimize = func(ctx context.Context, req *jobRequest) (*Result, error) {
		entered <- struct{}{}
		time.Sleep(50 * time.Millisecond) // in flight while Shutdown runs
		return real(ctx, req)
	}

	v1, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=200")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	v2, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=201")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, v := range []jobView{v1, v2} {
		got := waitJob(t, ts, v.ID)
		if got.Status != StatusDone {
			t.Errorf("job %s not drained: %+v", v.ID, got)
		}
	}
	if _, code := errorBody(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=202"); code != http.StatusTooManyRequests {
		t.Errorf("post-shutdown submit status %d, want 429", code)
	}
}

// TestBadRequests covers the 400 surface: corrupt container, unknown
// optimizer/program, out-of-range symbols, missing params.
func TestBadRequests(t *testing.T) {
	raw, prof := recordedTrace(t)
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})

	cases := []struct {
		name     string
		body     []byte
		query    string
		wantCode int
		wantMsg  string
	}{
		{"bad magic", []byte("XXXX\x01\x00"), "prog=" + testProg + "&opt=func-affinity", 400, "bad magic"},
		{"truncated", []byte("CLTR\x01\x05\x02"), "prog=" + testProg + "&opt=func-affinity", 400, "occurrence"},
		{"empty trace", encodeTrace(t, nil), "prog=" + testProg + "&opt=func-affinity", 400, "empty"},
		{"unknown optimizer", raw, "prog=" + testProg + "&opt=nope", 400, "unknown optimizer"},
		{"unknown program", raw, "prog=999.nope&opt=func-affinity", 400, "999.nope"},
		{"missing params", raw, "", 400, "prog and opt"},
		{"symbol out of range", encodeTrace(t, []int32{int32(prof.Prog.NumBlocks() + 7)}),
			"prog=" + testProg + "&opt=func-affinity", 400, "out of range"},
	}
	for _, c := range cases {
		msg, code := errorBody(t, ts, c.body, c.query)
		if code != c.wantCode {
			t.Errorf("%s: status %d, want %d", c.name, code, c.wantCode)
		}
		if !strings.Contains(msg, c.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", c.name, msg, c.wantMsg)
		}
	}
}

func encodeTrace(t *testing.T, syms []int32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.New(syms).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFailedJobIsReported: a pipeline error surfaces as a failed job
// with its message, and counts in the failure metric.
func TestFailedJobIsReported(t *testing.T) {
	raw, _ := recordedTrace(t)
	s, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})
	s.optimize = func(ctx context.Context, req *jobRequest) (*Result, error) {
		return nil, errors.New("synthetic pipeline failure")
	}
	v, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=bb-trg")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusFailed || !strings.Contains(done.Error, "synthetic") {
		t.Fatalf("job = %+v, want failed with message", done)
	}
	if got := metricValue(t, ts, "layoutd_jobs_failed_total"); got != 1 {
		t.Errorf("jobs_failed_total = %v, want 1", got)
	}
}

// TestHealthAndRegistry: liveness and the optimizer registry endpoint.
func TestHealthAndRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/optimizers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Optimizers []string `json:"optimizers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Optimizers, core.OptimizerNames()) {
		t.Errorf("registry endpoint = %v", v.Optimizers)
	}
}

// seriesValue finds one series by name and exact label set in a parsed
// exposition.
func seriesValue(t *testing.T, exp *obs.Exposition, name string, labels map[string]string) float64 {
	t.Helper()
	for _, s := range exp.Series {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	t.Fatalf("series %s%v not found in exposition", name, labels)
	return 0
}

// TestMetricsHistogram: latency observations land in the per-optimizer
// histogram with consistent bucket cumulation, and the whole exposition
// survives the strict parser + linter.
func TestMetricsHistogram(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 1})
	s.metrics.latency.With("func-trg").Observe(3)
	s.metrics.latency.With("func-trg").Observe(30)
	s.metrics.latency.With("func-trg").Observe(60000)
	exp := scrapeMetrics(t, ts)
	for le, want := range map[string]float64{"5": 1, "50": 2, "+Inf": 3} {
		got := seriesValue(t, exp, "layoutd_optimize_latency_ms_bucket",
			map[string]string{"optimizer": "func-trg", "le": le})
		if got != want {
			t.Errorf("latency bucket le=%s = %v, want %v", le, got, want)
		}
	}
	if got := seriesValue(t, exp, "layoutd_optimize_latency_ms_count",
		map[string]string{"optimizer": "func-trg"}); got != 3 {
		t.Errorf("latency count = %v, want 3", got)
	}
	if typ := exp.Types["layoutd_optimize_latency_ms"]; typ != "histogram" {
		t.Errorf("latency TYPE = %q, want histogram", typ)
	}
}

// TestJobTraceTimeline: a finished job exposes its span timeline at
// /v1/jobs/{id}/trace — pipeline phases nested under the optimize span
// — and the same phase names land in layoutd_phase_seconds.
func TestJobTraceTimeline(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})

	v, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if len(v.TraceID) != 32 {
		t.Fatalf("submit response traceId = %q, want 32 hex chars", v.TraceID)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job failed: %+v", done)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d", resp.StatusCode)
	}
	var tv traceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	if tv.JobID != v.ID || tv.TraceID != v.TraceID {
		t.Fatalf("trace identity = %s/%s, want %s/%s", tv.JobID, tv.TraceID, v.ID, v.TraceID)
	}

	byName := map[string]spanView{}
	for _, sp := range tv.Spans {
		if sp.DurMS < 0 {
			t.Errorf("span %s still in progress on a finished job", sp.Name)
		}
		byName[sp.Name] = sp
	}
	// func-affinity analyzes incrementally, so there is no trace.prune
	// pass: the feed maps and trims each chunk as it arrives.
	for _, want := range []string{
		"queue.wait", "stream.decode", "optimize",
		"stream.feed", "affinity.hierarchy", "layout.emit", "cachesim.replay",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("trace missing span %q (have %v)", want, spanNames(tv.Spans))
		}
	}
	opt := byName["optimize"]
	for _, child := range []string{"stream.feed", "affinity.hierarchy", "layout.emit"} {
		c, ok := byName[child]
		if !ok {
			continue
		}
		if c.StartMS < opt.StartMS || c.DurMS > opt.DurMS+1 {
			t.Errorf("phase %s [%v +%vms] not nested in optimize [%v +%vms]",
				child, c.StartMS, c.DurMS, opt.StartMS, opt.DurMS)
		}
	}
	if hier := byName["affinity.hierarchy"]; hier.Attrs["trace_len"] <= 0 {
		t.Errorf("affinity.hierarchy attrs = %v, want trace_len > 0", hier.Attrs)
	}

	// The phases the trace shows are the phases the histogram counts.
	// finish folds them in just after the job turns done, so wait for it.
	for _, phase := range []string{"optimize", "affinity.hierarchy", "layout.emit"} {
		waitFor(t, 10*time.Second, "layoutd_phase_seconds_count{phase="+phase+"} >= 1", func() bool {
			return seriesOrZero(t, ts, "layoutd_phase_seconds_count", map[string]string{"phase": phase}) >= 1
		})
	}

	resp2, err := http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown job = %d, want 404", resp2.StatusCode)
	}
}

func spanNames(spans []spanView) []string {
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}

// syncBuffer makes a bytes.Buffer safe for the server's logging
// goroutines to race against the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJobLogsCarryTraceID: every structured log line a job emits
// carries the job's trace_id, end to end from accept to finish.
func TestJobLogsCarryTraceID(t *testing.T) {
	raw, _ := recordedTrace(t)
	var logs syncBuffer
	_, ts := newTestServer(t, Config{
		JobWorkers: 1, QueueDepth: 4, OptWorkers: 1,
		Logger: obs.NewLogger(&logs, slog.LevelInfo),
	})

	v, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-trg")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job failed: %+v", done)
	}

	// The finish log is written after the status flips to done; wait for
	// it rather than racing it.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(logs.String(), "job finished") {
		if time.Now().After(deadline) {
			t.Fatalf("no 'job finished' log line; logs:\n%s", logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	var jobLines int
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if _, ok := rec["job"]; !ok {
			continue
		}
		jobLines++
		if rec["trace_id"] != v.TraceID {
			t.Errorf("log line %q trace_id = %v, want %s", rec["msg"], rec["trace_id"], v.TraceID)
		}
		if rec["job"] != v.ID {
			t.Errorf("log line %q job = %v, want %s", rec["msg"], rec["job"], v.ID)
		}
	}
	if jobLines < 3 { // accepted, started, finished
		t.Errorf("only %d job log lines; logs:\n%s", jobLines, logs.String())
	}
}

// TestDebugJobsRing: finished jobs appear in the bounded debug ring,
// newest first, with their trace identity.
func TestDebugJobsRing(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})

	v, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-callgraph")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job failed: %+v", done)
	}

	found := debugJob(t, ts, v.ID)
	if found.TraceID != v.TraceID || found.Status != StatusDone ||
		found.Prog != testProg || found.Optimizer != "func-callgraph" {
		t.Errorf("debug summary = %+v", found)
	}
	if found.ElapsedMS <= 0 {
		t.Errorf("debug summary elapsed_ms = %v, want > 0", found.ElapsedMS)
	}
}

// debugJob returns job id's entry in the /v1/debug/jobs ring.
func debugJob(t *testing.T, ts *httptest.Server, id string) jobSummary {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/debug/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Jobs []jobSummary `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, j := range body.Jobs {
		if j.ID == id {
			return j
		}
	}
	t.Fatalf("job %s not in debug ring: %+v", id, body.Jobs)
	return jobSummary{}
}

// TestCacheHitElapsed: a hit returns the stored result unchanged —
// elapsedMS included, since the result is content-addressed — while
// its "job finished" log line and debug summary report the hit's own
// duration.
func TestCacheHitElapsed(t *testing.T) {
	raw, _ := recordedTrace(t)
	var logs syncBuffer
	s, ts := newTestServer(t, Config{
		JobWorkers: 1, QueueDepth: 4, OptWorkers: 1,
		Logger: obs.NewLogger(&logs, slog.LevelInfo),
	})
	query := "prog=" + testProg + "&opt=func-callgraph"
	v, code := submitRaw(t, ts, raw, query)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if done := waitJob(t, ts, v.ID); done.Status != StatusDone {
		t.Fatalf("job failed: %+v", done)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(logs.String(), "job finished") {
		if time.Now().After(deadline) {
			t.Fatalf("no 'job finished' log line; logs:\n%s", logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Re-store the result with a computing time no hit can take.
	const storedMS = 1e6
	res, ok := s.cache.get(context.Background(), v.Digest)
	if !ok {
		t.Fatal("computed result not cached")
	}
	stored := *res
	stored.ElapsedMS = storedMS
	s.cache.put(context.Background(), &stored)

	hit, code := submitRaw(t, ts, raw, query)
	if code == http.StatusAccepted {
		hit = waitJob(t, ts, hit.ID)
	}
	if code != http.StatusAccepted || !hit.Cached || hit.Result == nil {
		t.Fatalf("resubmit: status %d, view %+v; want a cache hit", code, hit)
	}
	if hit.Result.ElapsedMS != storedMS {
		t.Errorf("hit result elapsedMS = %v, want the stored %v", hit.Result.ElapsedMS, float64(storedMS))
	}
	if sum := debugJob(t, ts, hit.ID); !sum.Cached || sum.ElapsedMS < 0 || sum.ElapsedMS >= storedMS {
		t.Errorf("hit debug summary = %+v, want the hit's own duration", sum)
	}
	var logged bool
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) != nil || rec["job"] != hit.ID || rec["msg"] != "job finished" {
			continue
		}
		logged = true
		if ms, _ := rec["elapsed_ms"].(float64); ms < 0 || ms >= storedMS {
			t.Errorf("hit 'job finished' elapsed_ms = %v, want the hit's own duration", rec["elapsed_ms"])
		}
	}
	if !logged {
		t.Errorf("no 'job finished' log line for hit %s; logs:\n%s", hit.ID, logs.String())
	}
}
