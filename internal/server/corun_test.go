package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"codelayout/internal/cachesim"
	"codelayout/internal/store"
)

// postJSON posts a JSON body to path and decodes the response into a
// jobView when the request was accepted.
func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (jobView, string, int) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		var v jobView
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("bad job JSON %s: %v", raw, err)
		}
		return v, "", resp.StatusCode
	}
	var e struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(raw, &e)
	return jobView{}, e.Error, resp.StatusCode
}

// submitDone submits the recorded trace under the named optimizer and
// waits for the layout, returning its result digest.
func submitDone(t *testing.T, ts *httptest.Server, optName string) string {
	t.Helper()
	raw, _ := recordedTrace(t)
	v, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt="+optName)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit %s status %d", optName, code)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("optimize %s failed: %+v", optName, done)
	}
	return done.Digest
}

// TestCorunEndToEnd: submit two layouts, pair them, and check the
// document against the semantics the paper defines — plus the
// content-addressed fast path on a repeated (and swapped) pairing.
func TestCorunEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 2, QueueDepth: 8, OptWorkers: 1})
	dA := submitDone(t, ts, "func-affinity")
	dB := submitDone(t, ts, "func-trg")

	v, _, code := postJSON(t, ts, "/v1/corun", map[string]any{"a": dA, "b": dB})
	if code != http.StatusAccepted {
		t.Fatalf("corun submit status %d", code)
	}
	if v.Kind != "corun" {
		t.Fatalf("job kind %q, want corun", v.Kind)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone || done.Corun == nil {
		t.Fatalf("corun job: %+v", done)
	}
	doc := done.Corun
	if doc.Cache != cachesim.L1IDefault {
		t.Errorf("default cache geometry %+v", doc.Cache)
	}
	// Sides are canonical (sorted digest) order and carry both digests.
	if doc.A.Digest > doc.B.Digest {
		t.Errorf("sides not in canonical order: %s > %s", doc.A.Digest, doc.B.Digest)
	}
	got := map[string]bool{doc.A.Digest: true, doc.B.Digest: true}
	if !got[dA] || !got[dB] {
		t.Errorf("doc sides %s/%s, want %s/%s", doc.A.Digest, doc.B.Digest, dA, dB)
	}
	for _, side := range []PairSide{doc.A, doc.B} {
		if side.Prog != testProg {
			t.Errorf("side prog %q", side.Prog)
		}
		if side.MissCorun < side.MissSolo {
			t.Errorf("co-running should not reduce misses: corun %v < solo %v", side.MissCorun, side.MissSolo)
		}
		if math.Abs(side.Contention-(side.MissCorun-side.MissSolo)) > 1e-12 {
			t.Errorf("contention %v != corun-solo %v", side.Contention, side.MissCorun-side.MissSolo)
		}
		if side.PredMissRatio < 0 || side.PredMissRatio > 1 {
			t.Errorf("predicted miss ratio %v out of range", side.PredMissRatio)
		}
		if side.PredMisses < 0 {
			t.Errorf("negative predicted misses %v", side.PredMisses)
		}
	}
	if math.Abs(doc.PairCost-(doc.A.PredMisses+doc.B.PredMisses)) > 1e-9 {
		t.Errorf("pair cost %v != sum of predicted misses", doc.PairCost)
	}
	if doc.PeerLaps[0] < 0 || doc.PeerLaps[1] < 0 {
		t.Errorf("negative peer laps: %v", doc.PeerLaps)
	}

	// The document is addressable by content.
	resp, err := http.Get(ts.URL + "/v1/corun/" + done.Digest)
	if err != nil {
		t.Fatal(err)
	}
	var fetched CorunDoc
	err = json.NewDecoder(resp.Body).Decode(&fetched)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || fetched.Digest != done.Digest {
		t.Fatalf("GET /v1/corun/{digest}: %d %v", resp.StatusCode, err)
	}

	// Same pair in swapped order: instant cache hit, same digest.
	v2, _, code := postJSON(t, ts, "/v1/corun", map[string]any{"a": dB, "b": dA})
	if code != http.StatusOK || !v2.Cached || v2.Status != StatusDone {
		t.Fatalf("swapped resubmit not served from pair cache: %d %+v", code, v2)
	}
	if v2.Digest != done.Digest {
		t.Errorf("swapped pair digest %s != %s", v2.Digest, done.Digest)
	}
	if got := metricValue(t, ts, "layoutd_corun_jobs_total"); got != 2 {
		t.Errorf("corun_jobs_total = %v, want 2", got)
	}
	if got := metricValue(t, ts, "layoutd_pair_cache_hits_total"); got != 1 {
		t.Errorf("pair_cache_hits_total = %v, want 1", got)
	}
}

// TestCorunMemoryOnlyRetention: a server without a durable tier keeps
// the traces of the layouts it computed, so the paper optimizers'
// layouts can be co-run without a Store behind the trace cache.
func TestCorunMemoryOnlyRetention(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1, StreamWindow: DefaultStreamWindow})
	dA := submitDone(t, ts, "func-affinity")
	dB := submitDone(t, ts, "func-trg")
	v, errMsg, code := postJSON(t, ts, "/v1/corun", map[string]any{"a": dA, "b": dB})
	if code != http.StatusAccepted {
		t.Fatalf("corun status %d: %s", code, errMsg)
	}
	if done := waitJob(t, ts, v.ID); done.Status != StatusDone || done.Corun == nil {
		t.Fatalf("corun job %+v", done)
	}
}

// TestCorunSelfPairing: a layout co-running with another instance of
// itself is a legal pairing and reports symmetric sides.
func TestCorunSelfPairing(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1})
	d := submitDone(t, ts, "func-affinity")
	v, _, code := postJSON(t, ts, "/v1/corun", map[string]any{"a": d, "b": d})
	if code != http.StatusAccepted {
		t.Fatalf("self-pair submit status %d", code)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone || done.Corun == nil {
		t.Fatalf("self-pair job: %+v", done)
	}
	doc := done.Corun
	if doc.A.Digest != d || doc.B.Digest != d {
		t.Errorf("self-pair sides %s/%s", doc.A.Digest, doc.B.Digest)
	}
	// Identical programs see identical interference.
	if doc.A.MissCorun != doc.B.MissCorun || doc.A.PredMisses != doc.B.PredMisses {
		t.Errorf("self-pair asymmetric: %+v vs %+v", doc.A, doc.B)
	}
}

// TestCorunAdversarialInputs: the request-validation surface.
func TestCorunAdversarialInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1})
	d := submitDone(t, ts, "func-affinity")

	unknown := "deadbeef" + d[8:]
	cases := []struct {
		name string
		body any
		code int
	}{
		{"unknown digest a", map[string]any{"a": unknown, "b": d}, http.StatusNotFound},
		{"unknown digest b", map[string]any{"a": d, "b": unknown}, http.StatusNotFound},
		{"missing b", map[string]any{"a": d}, http.StatusBadRequest},
		{"empty body", map[string]any{}, http.StatusBadRequest},
		{"bad cache geometry", map[string]any{"a": d, "b": d,
			"cache": map[string]any{"SizeBytes": 1000, "Assoc": 3, "LineBytes": 64}}, http.StatusBadRequest},
		{"unknown field", map[string]any{"a": d, "b": d, "bogus": 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, msg, code := postJSON(t, ts, "/v1/corun", tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, msg, tc.code)
		}
	}
}

// TestCorunQuarantinedTrace: a digest whose retained trace blob was
// corrupted on disk (and quarantined by the restart scan) must yield a
// clean 404 telling the client to resubmit the profile — not a 500 or a
// hung job.
func TestCorunQuarantinedTrace(t *testing.T) {
	raw, _ := recordedTrace(t)
	dir := t.TempDir()

	st1 := openTestStore(t, store.Config{Dir: dir})
	_, ts1 := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1, Store: st1})
	v, code := submitRaw(t, ts1, raw, "prog="+testProg+"&opt=func-affinity")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitJob(t, ts1, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("optimize failed: %+v", done)
	}
	st1.Flush()

	// Corrupt the trace blob in place; the result blob stays intact.
	traceBlob := filepath.Join(dir, traceStoreKey+done.Result.TraceDigest+".blob")
	data, err := os.ReadFile(traceBlob)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(traceBlob, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, store.Config{Dir: dir})
	if st2.Stats().Quarantined != 1 {
		t.Fatalf("restart scan quarantined %d blobs, want 1", st2.Stats().Quarantined)
	}
	_, ts2 := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1, Store: st2})

	// The result itself is still served from disk...
	resp, err := http.Get(ts2.URL + "/v1/layouts/" + done.Digest)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("layout lookup after quarantine: %d", resp.StatusCode)
	}
	// ...but pairing it needs the trace, which is gone.
	_, msg, code := postJSON(t, ts2, "/v1/corun", map[string]any{"a": done.Digest, "b": done.Digest})
	if code != http.StatusNotFound {
		t.Fatalf("corun over quarantined trace: status %d (%s), want 404", code, msg)
	}
	if msg == "" {
		t.Error("quarantined-trace error should tell the client to resubmit")
	}
}

// TestScheduleEndToEnd: four layouts over a 2x2 topology — the matrix
// must be symmetric with a zero diagonal, the placement exact and no
// worse than the enumerated worst case, and the pair cache shared with
// /v1/corun.
func TestScheduleEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 2, QueueDepth: 8, OptWorkers: 1})
	digests := []string{
		submitDone(t, ts, "func-affinity"),
		submitDone(t, ts, "func-trg"),
		submitDone(t, ts, "bb-affinity"),
		submitDone(t, ts, "bb-trg"),
	}
	body := map[string]any{
		"digests":  digests,
		"topology": map[string]int{"domains": 2, "slotsPerDomain": 2},
	}
	v, _, code := postJSON(t, ts, "/v1/schedule", body)
	if code != http.StatusAccepted {
		t.Fatalf("schedule submit status %d", code)
	}
	if v.Kind != "schedule" {
		t.Fatalf("job kind %q, want schedule", v.Kind)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone || done.Schedule == nil {
		t.Fatalf("schedule job: %+v", done)
	}
	doc := done.Schedule
	n := len(digests)
	if len(doc.Matrix) != n {
		t.Fatalf("matrix is %dx?, want %dx%d", len(doc.Matrix), n, n)
	}
	for i := 0; i < n; i++ {
		if doc.Matrix[i][i] != 0 {
			t.Errorf("diagonal [%d][%d] = %v", i, i, doc.Matrix[i][i])
		}
		for j := 0; j < n; j++ {
			if doc.Matrix[i][j] != doc.Matrix[j][i] {
				t.Errorf("matrix asymmetric at [%d][%d]", i, j)
			}
			if i != j && doc.Matrix[i][j] < 0 {
				t.Errorf("negative pair cost at [%d][%d]", i, j)
			}
		}
	}
	if !doc.Placement.Exact {
		t.Error("4 programs over 2x2 should be solved exactly")
	}
	if !doc.WorstKnown || doc.Placement.Cost > doc.WorstCost {
		t.Errorf("placement cost %v vs worst %v (known %v)", doc.Placement.Cost, doc.WorstCost, doc.WorstKnown)
	}
	placed := 0
	for _, dom := range doc.Placement.Domains {
		placed += len(dom)
	}
	if placed != n {
		t.Errorf("placement covers %d of %d programs", placed, n)
	}
	if doc.PairsComputed != 6 || doc.PairsCached != 0 {
		t.Errorf("pairs computed/cached = %d/%d, want 6/0", doc.PairsComputed, doc.PairsCached)
	}
	if got := metricValue(t, ts, "layoutd_schedule_pairs_total"); got != 6 {
		t.Errorf("schedule_pairs_total = %v, want 6", got)
	}

	// A corun request over two scheduled digests is a pure pair-cache
	// hit: the matrix already paid for it.
	cv, _, code := postJSON(t, ts, "/v1/corun", map[string]any{"a": digests[0], "b": digests[1]})
	if code != http.StatusOK || !cv.Cached {
		t.Fatalf("corun after schedule not served from pair cache: %d %+v", code, cv)
	}
	if cv.Corun.PairCost != doc.Matrix[0][1] {
		t.Errorf("pair cost %v != matrix cell %v", cv.Corun.PairCost, doc.Matrix[0][1])
	}

	// Identical schedule request: served from the schedule cache.
	v2, _, code := postJSON(t, ts, "/v1/schedule", body)
	if code != http.StatusOK || !v2.Cached || v2.Schedule == nil {
		t.Fatalf("repeat schedule not cached: %d %+v", code, v2)
	}
	if v2.Digest != done.Digest {
		t.Errorf("schedule digest changed: %s vs %s", v2.Digest, done.Digest)
	}
}

// TestScheduleValidation: the request-validation surface.
func TestScheduleValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1, MaxScheduleDigests: 4})
	d := submitDone(t, ts, "func-affinity")
	topo := map[string]int{"domains": 2, "slotsPerDomain": 2}
	cases := []struct {
		name string
		body any
		code int
	}{
		{"one digest", map[string]any{"digests": []string{d}, "topology": topo}, http.StatusBadRequest},
		{"too many digests", map[string]any{"digests": []string{d, d, d, d, d}, "topology": topo}, http.StatusBadRequest},
		{"zero topology", map[string]any{"digests": []string{d, d}, "topology": map[string]int{}}, http.StatusBadRequest},
		{"over capacity", map[string]any{"digests": []string{d, d, d},
			"topology": map[string]int{"domains": 1, "slotsPerDomain": 2}}, http.StatusBadRequest},
		{"unknown digest", map[string]any{"digests": []string{d, "deadbeef" + d[8:]}, "topology": topo}, http.StatusNotFound},
	}
	for _, tc := range cases {
		_, msg, code := postJSON(t, ts, "/v1/schedule", tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, msg, tc.code)
		}
	}
}

// TestScheduleCancelMidMatrix: DELETE on a running schedule job fires
// its context mid-matrix; the job lands in canceled, not failed, and
// the canceled metric counts it.
func TestScheduleCancelMidMatrix(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1})
	dA := submitDone(t, ts, "func-affinity")
	dB := submitDone(t, ts, "func-trg")

	started := make(chan struct{})
	var once bool
	s.pairAnalysis = func(ctx context.Context, cfg cachesim.Config, a, b *corunEntry, workers int) (*CorunDoc, error) {
		if !once {
			once = true
			close(started)
		}
		<-ctx.Done() // a pair analysis that never finishes on its own
		return nil, ctx.Err()
	}

	v, _, code := postJSON(t, ts, "/v1/schedule", map[string]any{
		"digests":  []string{dA, dB},
		"topology": map[string]int{"domains": 2, "slotsPerDomain": 1},
	})
	if code != http.StatusAccepted {
		t.Fatalf("schedule submit status %d", code)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("schedule job never reached the matrix")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var mid jobView
	err = json.NewDecoder(resp.Body).Decode(&mid)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE mid-matrix: status %d err %v", resp.StatusCode, err)
	}
	if mid.Status != StatusCanceling {
		t.Fatalf("status after DELETE = %q, want canceling", mid.Status)
	}

	done := waitJob(t, ts, v.ID)
	if done.Status != StatusCanceled {
		t.Fatalf("final status %q, want canceled: %+v", done.Status, done)
	}
	if got := metricValue(t, ts, "layoutd_jobs_canceled_total"); got != 1 {
		t.Errorf("jobs_canceled_total = %v, want 1", got)
	}
	if got := metricValue(t, ts, "layoutd_jobs_failed_total"); got != 0 {
		t.Errorf("jobs_failed_total = %v, want 0", got)
	}
}

// TestCorunCancelRunning: the same cancelable-while-running contract
// holds for single-pair corun jobs, while a running *optimization* keeps
// its 409 (covered by TestCancelRunningConflict elsewhere).
func TestCorunCancelRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1})
	d := submitDone(t, ts, "func-affinity")

	started := make(chan struct{})
	s.pairAnalysis = func(ctx context.Context, cfg cachesim.Config, a, b *corunEntry, workers int) (*CorunDoc, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	v, _, code := postJSON(t, ts, "/v1/corun", map[string]any{"a": d, "b": d})
	if code != http.StatusAccepted {
		t.Fatalf("corun submit status %d", code)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("corun job never started")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running corun: status %d, want 202", resp.StatusCode)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusCanceled {
		t.Fatalf("final status %q, want canceled", done.Status)
	}
}

// TestTraceRetentionSurvivesRestart: with a durable store, the traces
// behind cached layouts survive a crash/restart, so /v1/corun works on
// digests from a previous daemon life without a re-upload.
func TestTraceRetentionSurvivesRestart(t *testing.T) {
	raw, _ := recordedTrace(t)
	dir := t.TempDir()

	st1 := openTestStore(t, store.Config{Dir: dir})
	_, ts1 := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1, Store: st1})
	v, code := submitRaw(t, ts1, raw, "prog="+testProg+"&opt=func-affinity")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitJob(t, ts1, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("optimize failed: %+v", done)
	}
	st1.Flush()

	st2 := openTestStore(t, store.Config{Dir: dir})
	srv2, ts2 := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1, Store: st2})
	if srv2.traces.len() != 0 {
		t.Fatalf("fresh server should hold no traces in memory, has %d", srv2.traces.len())
	}
	cv, _, code := postJSON(t, ts2, "/v1/corun", map[string]any{"a": done.Digest, "b": done.Digest})
	if code != http.StatusAccepted {
		t.Fatalf("corun after restart: status %d", code)
	}
	cd := waitJob(t, ts2, cv.ID)
	if cd.Status != StatusDone || cd.Corun == nil {
		t.Fatalf("corun after restart: %+v", cd)
	}
	if srv2.traces.len() != 1 {
		t.Errorf("trace not repopulated from disk: %d in memory", srv2.traces.len())
	}
}
