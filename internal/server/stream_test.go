package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/layout"
	"codelayout/internal/stats"
	"codelayout/internal/store"
	"codelayout/internal/trace"
)

// streamTestWindow is deliberately tiny — the ring floor of three
// 32 KiB buffers — so even the suite's small traces exercise producer
// backpressure.
const streamTestWindow = 1

func newStreamServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StreamWindow == 0 {
		cfg.StreamWindow = streamTestWindow
	}
	return newTestServer(t, cfg)
}

// TestServedMatchesLibrary is the serving layer's oracle: for every
// registered optimizer, at the default prune and at an effective one,
// at analysis concurrency 1 and N, and through every submit door (raw
// POST, multipart POST, resumable-upload finalize), the served Result
// must equal byte for byte the one built from the library —
// core.OptimizeCtx on the decoded trace plus the two solo cache
// simulations behind MissBefore and MissAfter. Only ElapsedMS, the
// computing job's wall time, is exempt.
func TestServedMatchesLibrary(t *testing.T) {
	raw, prof := recordedTrace(t)
	tr, err := trace.ReadFrom(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	traceDigest := hex.EncodeToString(sum[:])
	// effectivePrune keeps fewer symbols than the program has functions,
	// so it trims the trace at either granularity.
	const effectivePrune = 20
	if prof.Prog.NumFuncs() <= effectivePrune {
		t.Fatalf("%s has %d functions; prune %d would not bind", testProg, prof.Prog.NumFuncs(), effectivePrune)
	}

	library := func(optName string, prune int) []byte {
		opt, err := core.OptimizerByName(optName)
		if err != nil {
			t.Fatal(err)
		}
		opt.PruneTopN = prune
		opt.Workers = 1
		l, rep, err := opt.OptimizeCtx(context.Background(), &core.Profile{Prog: prof.Prog, Blocks: tr})
		if err != nil {
			t.Fatal(err)
		}
		if prune == effectivePrune && rep.Retention >= 1 {
			t.Fatalf("%s: prune %d kept the whole trace", optName, prune)
		}
		cfg := cachesim.L1IDefault
		before := cachesim.SimulateSolo(cfg,
			layout.NewReplayer(layout.Original(prof.Prog), tr, cfg.LineBytes, false)).Stats.MissRatio()
		after := cachesim.SimulateSolo(cfg,
			layout.NewReplayer(l, tr, cfg.LineBytes, false)).Stats.MissRatio()
		want, _ := json.Marshal(&Result{
			Digest:        resultDigest(traceDigest, testProg, optName, prune),
			TraceDigest:   traceDigest,
			Prog:          testProg,
			Optimizer:     optName,
			Report:        rep,
			MissBefore:    before,
			MissAfter:     after,
			MissReduction: stats.Reduction(before, after),
		})
		return want
	}

	doors := []struct {
		name   string
		submit func(t *testing.T, ts *httptest.Server, query string) jobView
	}{
		{"raw", func(t *testing.T, ts *httptest.Server, query string) jobView {
			v, code := submitRaw(t, ts, raw, query)
			if code != http.StatusAccepted {
				t.Fatalf("raw submit status %d", code)
			}
			return v
		}},
		{"multipart", func(t *testing.T, ts *httptest.Server, query string) jobView {
			var body bytes.Buffer
			mw := multipart.NewWriter(&body)
			fw, _ := mw.CreateFormFile("trace", "t.cltr")
			fw.Write(raw)
			mw.Close()
			return postJob(t, ts.URL+"/v1/jobs?"+query, mw.FormDataContentType(), &body)
		}},
		{"upload", func(t *testing.T, ts *httptest.Server, query string) jobView {
			up := uploadCreate(t, ts)
			if resp, body := uploadPatch(t, ts, up.ID, 0, raw); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("PATCH status %d: %s", resp.StatusCode, body)
			}
			return postJob(t, ts.URL+"/v1/uploads/"+up.ID+"/finalize?"+query, "", nil)
		}},
	}

	for _, optName := range core.OptimizerNames() {
		want := map[int][]byte{0: library(optName, 0), effectivePrune: library(optName, effectivePrune)}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", optName, workers), func(t *testing.T) {
				t.Parallel()
				for _, door := range doors {
					// A server per door: a second door on the same server
					// would be answered from the result cache.
					_, ts := newUploadServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: workers})
					for _, prune := range []int{0, effectivePrune} {
						query := fmt.Sprintf("prog=%s&opt=%s&prune=%d", testProg, optName, prune)
						done := waitJob(t, ts, door.submit(t, ts, query).ID)
						if done.Status != StatusDone || done.Result == nil || done.Cached {
							t.Fatalf("%s prune=%d: job %+v", door.name, prune, done)
						}
						done.Result.ElapsedMS = 0
						got, _ := json.Marshal(done.Result)
						if !bytes.Equal(got, want[prune]) {
							t.Errorf("%s prune=%d: served result diverges from the library:\nserved:  %s\nlibrary: %s",
								door.name, prune, got, want[prune])
						}
					}
				}
			})
		}
	}
}

// postJob posts body to url and decodes the accepted job.
func postJob(t *testing.T, url, contentType string, body io.Reader) jobView {
	t.Helper()
	resp, err := http.Post(url, contentType, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, raw)
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad job JSON %s: %v", raw, err)
	}
	return v
}

// TestStreamedCacheHit: resubmitting a streamed trace resolves from
// the content-addressed cache at end-of-stream — the job still runs
// (the digest is only known once the upload finishes) but completes
// cached, without recomputing.
func TestStreamedCacheHit(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newStreamServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})
	query := "prog=" + testProg + "&opt=func-affinity"
	v1, code := submitRaw(t, ts, raw, query)
	if code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	d1 := waitJob(t, ts, v1.ID)
	if d1.Status != StatusDone || d1.Cached {
		t.Fatalf("first job %+v", d1)
	}
	v2, code := submitRaw(t, ts, raw, query)
	if code != http.StatusAccepted {
		t.Fatalf("second submit status %d", code)
	}
	d2 := waitJob(t, ts, v2.ID)
	if d2.Status != StatusDone || !d2.Cached {
		t.Fatalf("second job not served cached: %+v", d2)
	}
	if d2.Digest != d1.Digest {
		t.Errorf("cached digest %q != original %q", d2.Digest, d1.Digest)
	}
	if got := metricValue(t, ts, "layoutd_cache_hits_total"); got != 1 {
		t.Errorf("cache_hits_total = %v, want 1", got)
	}
}

// TestStreamedBadUploads: producer-side failures (malformed or empty
// containers) surface as 400 on the POST, exactly as in buffered mode.
func TestStreamedBadUploads(t *testing.T) {
	_, ts := newStreamServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1})
	cases := []struct {
		name     string
		body     []byte
		wantCode int
		wantMsg  string
	}{
		{"empty trace", encodeTrace(t, nil), 400, "empty"},
		{"truncated", []byte("CLTR\x01\x05\x02"), 400, "occurrence"},
	}
	for _, c := range cases {
		msg, code := errorBody(t, ts, c.body, "prog="+testProg+"&opt=func-affinity")
		if code != c.wantCode {
			t.Errorf("%s: status %d, want %d (%s)", c.name, code, c.wantCode, msg)
		}
		if !strings.Contains(msg, c.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", c.name, msg, c.wantMsg)
		}
	}
}

// TestStreamedFeedErrorFailsJob: a trace referencing, past its first
// symbols, blocks the program doesn't have is rejected on the POST
// itself — the producer checks every chunk before the worker sees it —
// and the job it started fails with the same error.
func TestStreamedFeedErrorFailsJob(t *testing.T) {
	_, ts := newStreamServer(t, Config{JobWorkers: 1, QueueDepth: 8, OptWorkers: 1})
	body := encodeTrace(t, []int32{0, 1, 1 << 24})
	msg, code := errorBody(t, ts, body, "prog="+testProg+"&opt=func-affinity")
	if code != http.StatusBadRequest || !strings.Contains(msg, "out of range") {
		t.Fatalf("submit: status %d, error %q; want 400 mentioning the bad block", code, msg)
	}
	done := waitJob(t, ts, "job-1")
	if done.Status != StatusFailed || !strings.Contains(done.Error, "out of range") {
		t.Fatalf("job = %+v, want failed mentioning the bad block", done)
	}
}

// TestStreamMetricsAndSpans: a streamed job counts in the stream
// family, releases every buffered byte, respects the window bound, and
// records the overlapped stream.decode / stream.feed spans in its
// waterfall.
func TestStreamMetricsAndSpans(t *testing.T) {
	raw, _ := recordedTrace(t)
	s, ts := newStreamServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})
	v, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job %+v", done)
	}
	if got := metricValue(t, ts, "layoutd_stream_jobs_total"); got != 1 {
		t.Errorf("stream_jobs_total = %v, want 1", got)
	}
	if got := metricValue(t, ts, "layoutd_stream_chunks_total"); got < 1 {
		t.Errorf("stream_chunks_total = %v, want >= 1", got)
	}
	if got := metricValue(t, ts, "layoutd_stream_buffered_bytes"); got != 0 {
		t.Errorf("stream_buffered_bytes = %v after completion, want 0", got)
	}
	peak := metricValue(t, ts, "layoutd_stream_buffered_peak_bytes")
	bound := float64(minStreamBuffers * streamChunkBytes)
	if peak <= 0 || peak > bound {
		t.Errorf("stream_buffered_peak_bytes = %v, want in (0, %v]", peak, bound)
	}
	if s.streamBytes.Load() != 0 {
		t.Errorf("internal stream byte count %d after completion", s.streamBytes.Load())
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tv traceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	var haveDecode, haveFeed bool
	for _, sp := range tv.Spans {
		switch sp.Name {
		case "stream.decode":
			haveDecode = true
		case "stream.feed":
			haveFeed = true
		}
	}
	if !haveDecode || !haveFeed {
		t.Errorf("waterfall missing stream spans (decode=%v feed=%v): %+v", haveDecode, haveFeed, tv.Spans)
	}

	// A TRG feed's construction finishes at end-of-stream under its own
	// span, as in trg.SequenceCtx.
	v, code = submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-trg")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if done := waitJob(t, ts, v.ID); done.Status != StatusDone {
		t.Fatalf("job %+v", done)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	tv = traceView{}
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	var build *spanView
	for i := range tv.Spans {
		if tv.Spans[i].Name == "trg.build" {
			build = &tv.Spans[i]
		}
	}
	if build == nil || build.Attrs["nodes"] <= 0 {
		t.Errorf("TRG job's waterfall lacks a trg.build span with nodes > 0: %+v", tv.Spans)
	}
}

// TestStreamedJobSpansShowOptWorkers: a streamed job's kernel spans
// report how many shards its analysis ran, so an operator can see from
// the job's waterfall that OptWorkers reached the kernel — also for an
// upload shorter than the feeders' shard span.
func TestStreamedJobSpansShowOptWorkers(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newStreamServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 2})
	for opt, kernel := range map[string]string{"func-affinity": "affinity.hierarchy", "func-trg": "trg.build"} {
		v, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt="+opt)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", opt, code)
		}
		if done := waitJob(t, ts, v.ID); done.Status != StatusDone {
			t.Fatalf("%s: job %+v", opt, done)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		var tv traceView
		err = json.NewDecoder(resp.Body).Decode(&tv)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]spanView{}
		for _, sp := range tv.Spans {
			byName[sp.Name] = sp
		}
		if shards := byName[kernel].Attrs["shards"]; shards < 2 {
			t.Errorf("%s: %s span shards = %d, want >= 2 at OptWorkers 2 (spans %v)", opt, kernel, shards, spanNames(tv.Spans))
		}
		if reduce, ok := byName["trg.reduce"]; kernel == "trg.build" &&
			(!ok || reduce.Attrs["nodes"] <= 0 || reduce.Attrs["edges"] <= 0) {
			t.Errorf("%s: trg.reduce span %+v, want nodes and edges > 0", opt, reduce)
		}
	}
}

// ---- resumable uploads ----

func newUploadServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	up, err := store.NewUploads(filepath.Join(t.TempDir(), "uploads"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Uploads = up
	return newStreamServer(t, cfg)
}

func uploadCreate(t *testing.T, ts *httptest.Server) uploadView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/uploads", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var v uploadView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func uploadPatch(t *testing.T, ts *httptest.Server, id string, offset int64, chunk []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, ts.URL+"/v1/uploads/"+id, bytes.NewReader(chunk))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Upload-Offset", strconv.FormatInt(offset, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

// TestUploadResumableEndToEnd: chunked upload with an out-of-sync
// PATCH in the middle (the resume protocol: 409 carries the durable
// offset, the client continues from there), finalized into a streamed
// job whose digest matches a direct one-shot submission of the same
// bytes.
func TestUploadResumableEndToEnd(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newUploadServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})

	up := uploadCreate(t, ts)
	chunk := len(raw)/3 + 1
	var off int64
	replayedStale := false
	for int(off) < len(raw) {
		end := int(off) + chunk
		if end > len(raw) {
			end = len(raw)
		}
		if !replayedStale && off > 0 {
			// A client that lost the previous PATCH's response retries
			// at a stale offset: 409, durable offset in the header.
			replayedStale = true
			resp, _ := uploadPatch(t, ts, up.ID, 0, raw[:chunk])
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("stale PATCH status %d, want 409", resp.StatusCode)
			}
			got, err := strconv.ParseInt(resp.Header.Get("Upload-Offset"), 10, 64)
			if err != nil || got != off {
				t.Fatalf("409 Upload-Offset %q, want %d", resp.Header.Get("Upload-Offset"), off)
			}
		}
		resp, body := uploadPatch(t, ts, up.ID, off, raw[off:end])
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PATCH at %d: status %d: %s", off, resp.StatusCode, body)
		}
		off, _ = strconv.ParseInt(resp.Header.Get("Upload-Offset"), 10, 64)
		if off != int64(end) {
			t.Fatalf("PATCH advanced to %d, want %d", off, end)
		}
	}

	// GET reports the durable offset (what a resuming client asks).
	resp, err := http.Get(ts.URL + "/v1/uploads/" + up.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st uploadView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Offset != int64(len(raw)) {
		t.Fatalf("status offset %d, want %d", st.Offset, len(raw))
	}

	fin, err := http.Post(ts.URL+"/v1/uploads/"+up.ID+"/finalize?prog="+testProg+"&opt=func-affinity", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	if err := json.NewDecoder(fin.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	fin.Body.Close()
	if fin.StatusCode != http.StatusAccepted {
		t.Fatalf("finalize status %d", fin.StatusCode)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("finalized job %+v", done)
	}
	sum := sha256.Sum256(raw)
	if done.Result.TraceDigest != hex.EncodeToString(sum[:]) {
		t.Errorf("trace digest %q, want sha256 of the uploaded bytes", done.Result.TraceDigest)
	}

	// The chunked path and the one-shot path are the same submission:
	// same content address, served from cache on resubmit.
	v2, code := submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity")
	if code != http.StatusAccepted {
		t.Fatalf("direct submit status %d", code)
	}
	d2 := waitJob(t, ts, v2.ID)
	if d2.Status != StatusDone || !d2.Cached || d2.Digest != done.Digest {
		t.Errorf("one-shot submission = %+v, want cached with digest %q", d2, done.Digest)
	}

	// The session is gone after finalize.
	if resp, _ := uploadPatch(t, ts, up.ID, int64(len(raw)), []byte("x")); resp.StatusCode != http.StatusNotFound {
		t.Errorf("PATCH after finalize status %d, want 404", resp.StatusCode)
	}
	if got := metricValue(t, ts, "layoutd_upload_sessions"); got != 0 {
		t.Errorf("upload_sessions = %v after finalize, want 0", got)
	}
}

// TestUploadFinalizeBufferedFallback: an optimizer without incremental
// analysis works through the chunked-upload door too — its feed
// collects the sealed spool's chunks and analyzes them at Finish.
func TestUploadFinalizeBufferedFallback(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newUploadServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})
	up := uploadCreate(t, ts)
	resp, body := uploadPatch(t, ts, up.ID, 0, raw)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PATCH status %d: %s", resp.StatusCode, body)
	}
	fin, err := http.Post(ts.URL+"/v1/uploads/"+up.ID+"/finalize?prog="+testProg+"&opt=func-callgraph", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fin.Body.Close()
	if fin.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(fin.Body)
		t.Fatalf("finalize status %d: %s", fin.StatusCode, raw)
	}
	var v jobView
	if err := json.NewDecoder(fin.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone || done.Result == nil {
		t.Fatalf("fallback job %+v", done)
	}
	if done.Result.Optimizer != "func-callgraph" {
		t.Errorf("optimizer %q", done.Result.Optimizer)
	}
}

// TestUploadEndpointErrors: the protocol's edges — unknown sessions,
// bad offsets, discard, empty finalize.
func TestUploadEndpointErrors(t *testing.T) {
	_, ts := newUploadServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})

	if resp, _ := uploadPatch(t, ts, "nope", 0, []byte("x")); resp.StatusCode != http.StatusNotFound {
		t.Errorf("PATCH unknown session: %d, want 404", resp.StatusCode)
	}

	up := uploadCreate(t, ts)
	req, _ := http.NewRequest(http.MethodPatch, ts.URL+"/v1/uploads/"+up.ID, strings.NewReader("x"))
	resp, err := http.DefaultClient.Do(req) // no Upload-Offset header
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PATCH without Upload-Offset: %d, want 400", resp.StatusCode)
	}

	// Empty finalize is rejected and consumes the session.
	fin, err := http.Post(ts.URL+"/v1/uploads/"+up.ID+"/finalize?prog="+testProg+"&opt=func-affinity", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	fin.Body.Close()
	if fin.StatusCode != http.StatusBadRequest {
		t.Errorf("empty finalize: %d, want 400", fin.StatusCode)
	}

	// Discard removes the session.
	up2 := uploadCreate(t, ts)
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/uploads/"+up2.ID, nil)
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE: %d, want 204", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/uploads/" + up2.ID); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET after discard: %d, want 404", resp.StatusCode)
		}
	}

	// Finalize with bad params leaves the session intact for a retry.
	up3 := uploadCreate(t, ts)
	fin, err = http.Post(ts.URL+"/v1/uploads/"+up3.ID+"/finalize?prog="+testProg+"&opt=nope", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	fin.Body.Close()
	if fin.StatusCode != http.StatusBadRequest {
		t.Errorf("bad-opt finalize: %d, want 400", fin.StatusCode)
	}
	if resp, _ := uploadPatch(t, ts, up3.ID, 0, []byte{}); resp.StatusCode != http.StatusNoContent {
		t.Errorf("session gone after rejected finalize: %d", resp.StatusCode)
	}
}

// TestMultipartFieldOverflow: an oversize prog/opt/prune form field is
// a 400, not a silent truncation to a plausible-looking value.
func TestMultipartFieldOverflow(t *testing.T) {
	raw, _ := recordedTrace(t)
	_, ts := newTestServer(t, Config{JobWorkers: 1, QueueDepth: 4, OptWorkers: 1})

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, _ := mw.CreateFormField("prog")
	fw.Write([]byte(strings.Repeat("x", maxFormFieldBytes+1)))
	tw, _ := mw.CreateFormFile("trace", "trace.cltr")
	tw.Write(raw)
	mw.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs?opt=func-affinity", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "exceeds") {
		t.Errorf("error %s does not mention the field bound", body)
	}

	// At exactly the bound the field still works.
	var ok bytes.Buffer
	mw = multipart.NewWriter(&ok)
	fw, _ = mw.CreateFormField("opt")
	fw.Write([]byte("func-affinity"))
	tw, _ = mw.CreateFormFile("trace", "trace.cltr")
	tw.Write(raw)
	mw.Close()
	resp2, err := http.Post(ts.URL+"/v1/jobs?prog="+testProg, mw.FormDataContentType(), &ok)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted && resp2.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp2.Body)
		t.Errorf("in-bound field status %d: %s", resp2.StatusCode, body)
	}
}
