package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codelayout/internal/cluster"
	"codelayout/internal/store"
)

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// ---- digest validation (table-driven) ----

func TestValidDigest(t *testing.T) {
	hex64 := strings.Repeat("ab12", 16)
	cases := []struct {
		in string
		ok bool
	}{
		{hex64, true},
		{strings.Repeat("0", 64), true},
		{"", false},
		{hex64[:63], false},
		{hex64 + "a", false},
		{strings.ToUpper(hex64), false},                // uppercase hex
		{strings.Repeat("g", 64), false},               // non-hex
		{hex64[:60] + "../x", false},                   // traversal chars
		{strings.Repeat("a", 62) + "\x00b", false},     // control byte
		{"t-" + hex64, false},                          // prefixed keys are not digests
		{strings.Repeat("a", 32), false},               // md5-sized
		{strings.Repeat("а", 32), false},               // cyrillic 'а', 64 bytes
		{hex64[:62] + "Ff", false},                     // mixed case at the tail
		{strings.Repeat("0123456789abcdef", 4), true},  // full hex alphabet
		{strings.Repeat("0123456789abcdef", 8), false}, // 128 chars
	}
	for _, c := range cases {
		if got := validDigest(c.in); got != c.ok {
			t.Errorf("validDigest(%.20q...) = %v, want %v", c.in, got, c.ok)
		}
	}
}

func TestStoreKeyKind(t *testing.T) {
	d := strings.Repeat("1f", 32)
	cases := []struct {
		key  string
		kind string
		ok   bool
	}{
		{d, kindResult, true},
		{"t-" + d, kindTrace, true},
		{"p-" + d, kindPair, true},
		{"s-" + d, kindSchedule, true},
		{"x-" + d, "", false},      // unknown prefix
		{"t-" + d[:62], "", false}, // short payload
		{"t-" + strings.ToUpper(d), "", false},
		{"../" + d[3:], "", false},
		{"t-../" + d, "", false},
		{"", "", false},
		{"tt" + d, "", false}, // 66 chars but bad prefix
	}
	for _, c := range cases {
		kind, ok := storeKeyKind(c.key)
		if ok != c.ok || kind != c.kind {
			t.Errorf("storeKeyKind(%.20q...) = (%q, %v), want (%q, %v)", c.key, kind, ok, c.kind, c.ok)
		}
	}
}

func TestCheckDigests(t *testing.T) {
	good := strings.Repeat("ab", 32)
	if err := checkDigests(good, good); err != nil {
		t.Fatalf("checkDigests(good) = %v", err)
	}
	err := checkDigests(good, "nope")
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("checkDigests should name the malformed digest, got %v", err)
	}
	if err := checkDigests(); err != nil {
		t.Fatalf("checkDigests() = %v", err)
	}
}

// Malformed digests at the read endpoints are 400, not 404: they can
// never name content, so treating them as lookups would leak the
// store's key syntax into filepath operations.
func TestMalformedDigestRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	for _, path := range []string{
		"/v1/layouts/not-a-digest",
		"/v1/corun/NOPE",
		"/v1/store/" + strings.Repeat("Z", 64),
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, resp.StatusCode)
		}
	}
}

// ---- store admin endpoints ----

func doReq(t *testing.T, method, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

func TestStoreAdminEndpoints(t *testing.T) {
	st := openTestStore(t, store.Config{Dir: t.TempDir()})
	s, ts := newTestServer(t, Config{JobWorkers: 1, Store: st})
	digest := submitDone(t, ts, "func-affinity")
	s.disk.Flush()

	// The listing holds the result blob and the trace blob.
	resp, raw := doReq(t, http.MethodGet, ts.URL+"/v1/store", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/store = %d: %s", resp.StatusCode, raw)
	}
	var listing struct {
		Entries []storeEntryView `json:"entries"`
		Count   int              `json:"count"`
		Bytes   int64            `json:"bytes"`
	}
	if err := json.Unmarshal(raw, &listing); err != nil {
		t.Fatal(err)
	}
	if listing.Count != 2 || len(listing.Entries) != 2 {
		t.Fatalf("store listing count = %d, want 2 (result + trace): %s", listing.Count, raw)
	}
	kinds := map[string]bool{}
	for _, e := range listing.Entries {
		kinds[e.Kind] = true
		if e.Size <= 0 {
			t.Errorf("entry %s has size %d", e.Key, e.Size)
		}
		if _, err := time.Parse(time.RFC3339, e.LastAccess); err != nil {
			t.Errorf("entry %s last_access %q: %v", e.Key, e.LastAccess, err)
		}
	}
	if !kinds[kindResult] || !kinds[kindTrace] {
		t.Fatalf("listing kinds = %v, want result and trace", kinds)
	}

	// Raw read returns the JSON result blob with a matching digest header.
	resp, raw = doReq(t, http.MethodGet, ts.URL+"/v1/store/"+digest, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/store/{key} = %d", resp.StatusCode)
	}
	if resp.Header.Get(headerDigest) == "" {
		t.Fatal("store read missing digest header")
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil || res.Digest != digest {
		t.Fatalf("store blob does not decode to its own result: %v", err)
	}

	// DELETE drops both tiers; the layout is gone from /v1/layouts too.
	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/store/"+digest, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/store/"+digest, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/v1/layouts/"+digest, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/layouts after delete = %d, want 404", resp.StatusCode)
	}
	if got := metricValue(t, ts, "layoutd_store_deletes_total"); got != 1 {
		t.Fatalf("layoutd_store_deletes_total = %v, want 1", got)
	}
}

func TestStoreAdminWithoutDisk(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/store", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/store without disk = %d, want 404", resp.StatusCode)
	}
	key := strings.Repeat("ab", 32)
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/replicate/"+key, []byte("x"), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT /v1/replicate without disk = %d, want 503", resp.StatusCode)
	}
}

// ---- replication receiver ----

func TestReplicateEndpoint(t *testing.T) {
	st := openTestStore(t, store.Config{Dir: t.TempDir()})
	s, ts := newTestServer(t, Config{JobWorkers: 1, Store: st})
	payload := []byte(`{"synthetic":"blob"}`)
	key := "t-" + strings.Repeat("7e", 32)
	sum := sha256Hex(payload)

	// Digest-authenticated happy path: durable on ack.
	resp, raw := doReq(t, http.MethodPut, ts.URL+"/v1/replicate/"+key, payload,
		map[string]string{headerDigest: sum})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("replicate = %d: %s", resp.StatusCode, raw)
	}
	if data, ok := s.disk.Get(key); !ok || !bytes.Equal(data, payload) {
		t.Fatal("replicated blob not readable from the store")
	}
	if got := metricValue(t, ts, "layoutd_replicate_received_total"); got != 1 {
		t.Fatalf("layoutd_replicate_received_total = %v, want 1", got)
	}

	// A push without the digest header, or with a lying one, is rejected.
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/replicate/"+key, payload, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("replicate without digest = %d, want 400", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/replicate/"+key, payload,
		map[string]string{headerDigest: strings.Repeat("0", 64)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("replicate with forged digest = %d, want 400", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/replicate/bad..key", payload,
		map[string]string{headerDigest: sum})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("replicate with malformed key = %d, want 400", resp.StatusCode)
	}
}

// ---- cluster end to end ----

// swapHandler lets an httptest server exist (so its URL is known for
// the peer set) before the real layoutd handler does. Until the swap it
// answers health polls "ok" and everything else 503.
type swapHandler struct{ h atomic.Value }

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := sh.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	if r.URL.Path == "/healthz" {
		writeJSON(w, http.StatusOK, healthzView{Status: "ok"})
		return
	}
	http.Error(w, "starting", http.StatusServiceUnavailable)
}

// clusterNode is one member of an in-process test cluster.
type clusterNode struct {
	id  string
	srv *Server
	ts  *httptest.Server
	cl  *cluster.Cluster
}

// newTestCluster3 stands up a 3-node cluster, each node with its own
// durable store, replication factor 2.
func newTestCluster3(t *testing.T) []*clusterNode {
	t.Helper()
	ids := []string{"n1", "n2", "n3"}
	nodes := make([]*clusterNode, len(ids))
	peers := make([]cluster.Peer, len(ids))
	swaps := make([]*swapHandler, len(ids))
	for i, id := range ids {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		nodes[i] = &clusterNode{id: id, ts: ts}
		peers[i] = cluster.Peer{ID: id, URL: ts.URL}
	}
	for i, id := range ids {
		cl, err := cluster.New(cluster.Config{
			SelfID:            id,
			Peers:             peers,
			ReplicationFactor: 2,
			HealthInterval:    100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := openTestStore(t, store.Config{Dir: t.TempDir()})
		srv := New(Config{JobWorkers: 1, Store: st, Cluster: cl})
		nodes[i].srv = srv
		nodes[i].cl = cl
		swaps[i].h.Store(srv.Handler())
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			n.srv.Shutdown(ctx)
			cancel()
		}
	})
	return nodes
}

func nodeByID(nodes []*clusterNode, id string) *clusterNode {
	for _, n := range nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

// seriesOrZero reads one labeled series from a node's exposition,
// 0 when the series does not exist yet.
func seriesOrZero(t *testing.T, ts *httptest.Server, name string, labels map[string]string) float64 {
	t.Helper()
	exp := scrapeMetrics(t, ts)
	for _, s := range exp.Series {
		if s.Name != name {
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
	return 0
}

func TestClusterForwardReplicateAndFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node cluster e2e")
	}
	nodes := newTestCluster3(t)
	raw, _ := recordedTrace(t)

	// The submit routing key for a raw body is its SHA-256 — the trace
	// digest — so the owner is computable here, and the submission goes
	// to a node that is NOT the owner to force a forward.
	routingKey := sha256Hex(raw)
	ownerID := nodes[0].cl.Owner(routingKey).ID
	var submitNode *clusterNode
	for _, n := range nodes {
		if n.id != ownerID {
			submitNode = n
			break
		}
	}

	req, err := http.NewRequest(http.MethodPost,
		submitNode.ts.URL+"/v1/jobs?prog="+testProg+"&opt=func-affinity", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit via non-owner = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(headerForwardedTo); got != ownerID {
		t.Fatalf("%s header = %q, want owner %q", headerForwardedTo, got, ownerID)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.ID, ownerID+".") {
		t.Fatalf("job ID %q not minted by owner %q", v.ID, ownerID)
	}

	// Polling the job through the submit node transparently follows the
	// node prefix in the job ID.
	done := waitJob(t, submitNode.ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job did not complete: %+v", done)
	}
	digest := done.Digest

	// The forward left its marks on the submitting node: the per-peer
	// counter and the peer.forward phase histogram.
	if got := seriesOrZero(t, submitNode.ts, "layoutd_peer_forwards_total",
		map[string]string{"peer": ownerID}); got < 1 {
		t.Fatalf("layoutd_peer_forwards_total{peer=%q} = %v, want >= 1", ownerID, got)
	}
	if got := seriesOrZero(t, submitNode.ts, "layoutd_phase_seconds_count",
		map[string]string{"phase": "peer.forward"}); got < 1 {
		t.Fatalf("peer.forward phase not observed on the submitting node")
	}

	// Write-behind replication converges: some surviving peer of the
	// owner ends up holding the result blob durably (RF=2 guarantees at
	// least one replica besides the compute node).
	ownerNode := nodeByID(nodes, ownerID)
	waitFor(t, 10*time.Second, "replica holds the result blob", func() bool {
		for _, n := range nodes {
			if n.id == ownerID {
				continue
			}
			resp, err := http.Get(n.ts.URL + "/v1/store/" + digest)
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
		return false
	})
	// The compute node observed its pushes (store.replicate span folded
	// into the phase histogram).
	if got := seriesOrZero(t, ownerNode.ts, "layoutd_phase_seconds_count",
		map[string]string{"phase": "store.replicate"}); got < 1 {
		t.Fatalf("store.replicate phase not observed on the compute node")
	}
	if got := seriesOrZero(t, ownerNode.ts, "layoutd_replication_pushed_total", nil); got < 1 {
		t.Fatalf("layoutd_replication_pushed_total = %v, want >= 1", got)
	}

	// Every node serves the digest — and nothing recomputed anywhere:
	// exactly one optimization ran in the whole cluster.
	for _, n := range nodes {
		resp, err := http.Get(n.ts.URL + "/v1/layouts/" + digest)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || res.Digest != digest {
			t.Fatalf("node %s: GET /v1/layouts/{digest} = %d (%v)", n.id, resp.StatusCode, err)
		}
	}
	var completed float64
	for _, n := range nodes {
		completed += seriesOrZero(t, n.ts, "layoutd_jobs_completed_total", nil)
	}
	if completed != 1 {
		t.Fatalf("cluster-wide completed jobs = %v, want exactly 1 (zero recompute)", completed)
	}

	// Kill the owner without ceremony. Both survivors must still serve
	// the digest — from their own disk or by fetching the replica — and
	// still without recomputing.
	ownerNode.ts.Close()
	for _, n := range nodes {
		if n.id == ownerID {
			continue
		}
		var ok bool
		// The first request may race the down-marking of the dead owner;
		// the forward failure falls back to local service, so a couple of
		// attempts always converge.
		for attempt := 0; attempt < 5 && !ok; attempt++ {
			resp, err := http.Get(n.ts.URL + "/v1/layouts/" + digest)
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			err = json.NewDecoder(resp.Body).Decode(&res)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusOK && err == nil && res.Digest == digest
		}
		if !ok {
			t.Fatalf("node %s cannot serve %s after owner death", n.id, digest)
		}
	}
	completed = 0
	for _, n := range nodes {
		if n.id != ownerID {
			completed += seriesOrZero(t, n.ts, "layoutd_jobs_completed_total", nil)
		}
	}
	if completed != 0 {
		t.Fatalf("survivors recomputed %v jobs after owner death, want 0", completed)
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// ---- trace retention vs concurrent corun ----

// TestTraceEvictionRacesCorun drives the trace LRU at capacity 1 while
// corun jobs replay both retained traces concurrently with submissions
// that force evictions. With a durable store behind the LRU every
// replay must still find its trace (disk fall-through); the point of
// the test is the -race interleaving of putMemory eviction against
// get's repopulation.
func TestTraceEvictionRacesCorun(t *testing.T) {
	st := openTestStore(t, store.Config{Dir: t.TempDir()})
	_, ts := newTestServer(t, Config{JobWorkers: 2, TraceCacheEntries: 1, Store: st})

	dA := submitDone(t, ts, "func-affinity")
	dB := submitDone(t, ts, "func-trg")
	raw, _ := recordedTrace(t)

	var wg sync.WaitGroup
	jobs := make(chan string, 16)
	// Half the goroutines hammer corun pairings (each replays both
	// traces and repopulates the LRU from disk), the other half resubmit
	// the trace.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if g%2 == 0 {
					a, b := dA, dB
					if i%2 == 1 {
						a, b = b, a
					}
					v, errMsg, code := postJSON(t, ts, "/v1/corun", map[string]any{"a": a, "b": b})
					if code != http.StatusAccepted && code != http.StatusOK {
						// 429 under queue pressure is fine; anything else is not.
						if code != http.StatusTooManyRequests {
							t.Errorf("corun status %d: %s", code, errMsg)
						}
						continue
					}
					jobs <- v.ID
				} else {
					submitRaw(t, ts, raw, "prog="+testProg+"&opt=func-affinity")
				}
			}
		}(g)
	}
	wg.Wait()
	close(jobs)
	for id := range jobs {
		if v := waitJob(t, ts, id); v.Status != StatusDone {
			t.Fatalf("corun job %s under eviction pressure: %+v", id, v)
		}
	}
}
