package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"syscall"
	"testing"
	"time"

	"codelayout/internal/fault"
	"codelayout/internal/store"
)

func openTestStore(t *testing.T, cfg store.Config) *store.Store {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	st, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// healthz returns the status field of the /healthz JSON body.
func healthz(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.Status
}

// TestResultSurvivesRestart is the in-process kill/restart acceptance
// path: a completed layout is written durably, the daemon "crashes"
// (the first server is abandoned without a graceful drain), and a new
// server over the same store directory serves the identical result
// from disk — cache-hit metric and byte-identical report sequence
// included.
func TestResultSurvivesRestart(t *testing.T) {
	raw, _ := recordedTrace(t)
	dir := t.TempDir()

	st1 := openTestStore(t, store.Config{Dir: dir})
	_, ts1 := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1, Store: st1})

	v1, code := submitRaw(t, ts1, raw, "prog="+testProg+"&opt=func-affinity")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitJob(t, ts1, v1.ID)
	if done.Status != StatusDone {
		t.Fatalf("job failed: %+v", done)
	}
	// Make the write-behind deterministic, then "crash": no Shutdown,
	// no drain — the second server sees only what hit the disk.
	st1.Flush()

	st2 := openTestStore(t, store.Config{Dir: dir})
	if st2.Stats().Quarantined != 0 {
		t.Fatalf("restart quarantined %d blobs from a clean crash point", st2.Stats().Quarantined)
	}
	_, ts2 := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1, Store: st2})

	v2, code := submitRaw(t, ts2, raw, "prog="+testProg+"&opt=func-affinity")
	if code != http.StatusAccepted {
		t.Fatalf("resubmit after restart status %d, want 202", code)
	}
	v2 = waitJob(t, ts2, v2.ID)
	if !v2.Cached || v2.Status != StatusDone || v2.Result == nil {
		t.Fatalf("restarted server recomputed: %+v", v2)
	}
	if v2.Digest != v1.Digest {
		t.Fatalf("digest changed across restart: %s vs %s", v2.Digest, v1.Digest)
	}
	if !reflect.DeepEqual(v2.Result.Report.Sequence, done.Result.Report.Sequence) {
		t.Fatal("restored sequence differs from the originally computed one")
	}
	if got := metricValue(t, ts2, "layoutd_cache_hits_total"); got != 1 {
		t.Errorf("cache_hits_total after restart = %v, want 1", got)
	}
	if got := metricValue(t, ts2, "layoutd_store_hits_total"); got != 1 {
		t.Errorf("store_hits_total after restart = %v, want 1", got)
	}
	if got := metricValue(t, ts2, "layoutd_jobs_completed_total"); got != 0 {
		t.Errorf("jobs_completed_total after restart = %v, want 0 (served from disk)", got)
	}

	// The content address works cold, too: no prior submit needed on a
	// third server over the same dir.
	st3 := openTestStore(t, store.Config{Dir: dir})
	_, ts3 := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1, Store: st3})
	resp, err := http.Get(ts3.URL + "/v1/layouts/" + v1.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/layouts/%s on cold server = %d", v1.Digest, resp.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Report.Sequence, done.Result.Report.Sequence) {
		t.Fatal("cold layout fetch returned a different sequence")
	}
}

// TestDegradedModeKeepsServing: injected ENOSPC trips the store to
// memory-only; the daemon keeps completing jobs, /healthz reports
// degraded and layoutd_store_state drops to 0; when the fault clears
// and the backoff elapses, the next write re-probes and recovers.
func TestDegradedModeKeepsServing(t *testing.T) {
	raw, _ := recordedTrace(t)
	dir := t.TempDir()
	clk := fault.NewFakeClock(time.Unix(0, 0))
	inj := fault.NewInjector(fault.OS(), fault.Rule{Op: fault.OpWrite, Err: syscall.ENOSPC})
	st := openTestStore(t, store.Config{
		Dir: dir, FS: inj, Clock: clk, ProbeBackoff: 10 * time.Second,
	})
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1, Store: st})

	if got := healthz(t, ts); got != "ok" {
		t.Fatalf("healthz before faults = %q", got)
	}

	// Job completes even though its blob write fails.
	v1, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=300")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if done := waitJob(t, ts, v1.ID); done.Status != StatusDone {
		t.Fatalf("job under disk fault failed: %+v", done)
	}
	st.Flush()
	if got := healthz(t, ts); got != "degraded" {
		t.Fatalf("healthz under disk fault = %q, want degraded", got)
	}
	if got := metricValue(t, ts, "layoutd_store_state"); got != 0 {
		t.Errorf("store_state under fault = %v, want 0", got)
	}
	if got := metricValue(t, ts, "layoutd_store_write_errors_total"); got != 1 {
		t.Errorf("store_write_errors_total = %v, want 1", got)
	}

	// Degraded is not down: the next job still completes, and its
	// result is served from the in-memory tier.
	v2, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=301")
	if code != http.StatusAccepted {
		t.Fatalf("submit while degraded status %d", code)
	}
	if done := waitJob(t, ts, v2.ID); done.Status != StatusDone {
		t.Fatalf("job while degraded failed: %+v", done)
	}
	v2again, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=301")
	if code == http.StatusAccepted {
		v2again = waitJob(t, ts, v2again.ID)
	}
	if code != http.StatusAccepted || !v2again.Cached {
		t.Fatalf("memory tier lost a result while degraded: code %d, %+v", code, v2again)
	}

	// Fault clears; past the backoff the next write probes and heals.
	inj.SetRules()
	clk.Advance(time.Minute)
	v3, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=302")
	if code != http.StatusAccepted {
		t.Fatalf("submit after repair status %d", code)
	}
	if done := waitJob(t, ts, v3.ID); done.Status != StatusDone {
		t.Fatalf("job after repair failed: %+v", done)
	}
	st.Flush()
	if got := healthz(t, ts); got != "ok" {
		t.Fatalf("healthz after recovery = %q, want ok", got)
	}
	if got := metricValue(t, ts, "layoutd_store_state"); got != 1 {
		t.Errorf("store_state after recovery = %v, want 1", got)
	}
	if got := metricValue(t, ts, "layoutd_store_recoveries_total"); got != 1 {
		t.Errorf("store_recoveries_total = %v, want 1", got)
	}
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) (jobView, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

// TestCancelQueuedJob: DELETE /v1/jobs/{id} cancels a queued job (and
// only a queued job — running, finished, and unknown jobs get 409/404),
// the canceled job never runs, and the cancellation is counted.
func TestCancelQueuedJob(t *testing.T) {
	raw, _ := recordedTrace(t)
	s, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})

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

	// j1 occupies the worker; j2 sits in the queue.
	v1, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=400")
	if code != http.StatusAccepted {
		t.Fatalf("submit 1 status %d", code)
	}
	<-started
	v2, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity&prune=401")
	if code != http.StatusAccepted {
		t.Fatalf("submit 2 status %d", code)
	}

	if _, code := deleteJob(t, ts, "job-999999"); code != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", code)
	}
	if _, code := deleteJob(t, ts, v1.ID); code != http.StatusConflict {
		t.Errorf("DELETE running job = %d, want 409", code)
	}
	got, code := deleteJob(t, ts, v2.ID)
	if code != http.StatusOK {
		t.Fatalf("DELETE queued job = %d, want 200", code)
	}
	if got.Status != StatusCanceled {
		t.Fatalf("canceled job status %q", got.Status)
	}
	if _, code := deleteJob(t, ts, v2.ID); code != http.StatusConflict {
		t.Errorf("second DELETE = %d, want 409 (already canceled)", code)
	}

	close(release)
	if done := waitJob(t, ts, v1.ID); done.Status != StatusDone {
		t.Fatalf("running job after cancel of its neighbor: %+v", done)
	}
	if _, code := deleteJob(t, ts, v1.ID); code != http.StatusConflict {
		t.Errorf("DELETE completed job = %d, want 409", code)
	}

	// The canceled job never ran: exactly one completion, one
	// cancellation on the books, and its status endpoint still says so.
	if got := metricValue(t, ts, "layoutd_jobs_canceled_total"); got != 1 {
		t.Errorf("jobs_canceled_total = %v, want 1", got)
	}
	if got := metricValue(t, ts, "layoutd_jobs_completed_total"); got != 1 {
		t.Errorf("jobs_completed_total = %v, want 1", got)
	}
	final := waitJob(t, ts, v2.ID)
	if final.Status != StatusCanceled {
		t.Fatalf("canceled job ended as %q", final.Status)
	}
}
