package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"codelayout/internal/cluster"
	"codelayout/internal/obs"
)

// client is the benchmark's single-process HTTP client. Every operation
// is synchronous: a closed-loop user waits for each reply.
type client struct {
	hc    *http.Client
	nodes []*node
}

func newClient(nodes []*node) *client {
	return &client{
		hc: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16},
		},
		nodes: nodes,
	}
}

// jobView mirrors the fields of layoutd's job document the benchmark
// reads; the result documents stay raw so oracles compare bytes.
type jobView struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Digest   string          `json:"digest"`
	TraceID  string          `json:"traceId"`
	Cached   bool            `json:"cached"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	Corun    json.RawMessage `json:"corun"`
	Schedule json.RawMessage `json:"schedule"`
}

// Operation kinds.
const (
	kindJob      = "job"      // optimize a fresh profile
	kindHit      = "hit"      // resubmit a profile whose layout is cached
	kindRead     = "read"     // GET /v1/layouts/{digest}
	kindCorun    = "corun"    // POST /v1/corun on an unscored pair
	kindSchedule = "schedule" // POST /v1/schedule over scored pairs
)

// op is one operation as the client saw it.
type op struct {
	kind      string
	client    int
	node      int
	start     time.Time
	end       time.Time // job observed terminal
	forwarded bool
	err       error

	in     *jobInput // job, hit
	seed   int       // hit, read: index into env.seeds
	pair   [2]int    // corun
	subset []int     // schedule
	view   jobView   // job-based operations
	raw    []byte    // read: the layout document

	traceID string // set in traced runs; sent as W3C traceparent
	spans   []span // traced runs: one per HTTP request, then the root
}

func (o *op) latency() time.Duration { return o.end.Sub(o.start) }

// traced reports whether the operation records spans.
func (o *op) traced() bool { return o.traceID != "" }

// record appends a span of a traced operation. Parent links are set when
// the spans are written out: the root, recorded last, parents the rest.
func (o *op) record(name string, start, end time.Time) {
	o.spans = append(o.spans, span{Trace: o.traceID, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
}

func (c *client) url(node int, path string) string { return c.nodes[node].ts.URL + path }

// do sends req and returns the body of a 2xx reply. A traced operation
// sends a W3C traceparent and records the request as a span.
func (c *client) do(o *op, req *http.Request) ([]byte, int, error) {
	if o.traced() {
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(o.traceID, obs.NewSpanID(), true))
		t0 := time.Now()
		defer func() { o.record("http."+strings.ToLower(req.Method), t0, time.Now()) }()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.Header.Get(cluster.ForwardedToHeader) != "" {
		o.forwarded = true
	}
	if resp.StatusCode/100 != 2 {
		return body, resp.StatusCode, fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.StatusCode, nil
}

// submitJob posts a profile and waits for the job to finish.
func (c *client) submitJob(o *op) {
	q := url.Values{"prog": {o.in.prog}, "opt": {o.in.opt}}
	req, err := http.NewRequest(http.MethodPost, c.url(o.node, "/v1/jobs?"+q.Encode()), bytes.NewReader(o.in.body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c.postAndWait(o, req)
}

// postJSON posts a /v1/corun or /v1/schedule request and waits for it.
func (c *client) postJSON(o *op, path string, body any) {
	raw, err := json.Marshal(body)
	if err != nil {
		o.err = err
		return
	}
	req, err := http.NewRequest(http.MethodPost, c.url(o.node, path), bytes.NewReader(raw))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	c.postAndWait(o, req)
}

// postAndWait sends an asynchronous-job POST, then polls the job until
// it is terminal. The poll interval grows with the time already waited
// (1/16 of it, 0.2 ms to 20 ms), so it adds at most ~6% to a latency.
func (c *client) postAndWait(o *op, req *http.Request) {
	o.start = time.Now()
	defer o.finish()
	body, _, err := c.do(o, req)
	o.end = time.Now()
	if err != nil {
		o.err = err
		return
	}
	if err := json.Unmarshal(body, &o.view); err != nil {
		o.err = fmt.Errorf("decoding job: %w", err)
		return
	}
	for !terminal(o.view.Status) {
		wait := min(max(time.Since(o.start)/16, 200*time.Microsecond), 20*time.Millisecond)
		time.Sleep(wait)
		greq, err := http.NewRequest(http.MethodGet, c.url(o.node, "/v1/jobs/"+o.view.ID), nil)
		if err != nil {
			o.err = err
			return
		}
		body, _, err := c.do(o, greq)
		if err != nil {
			o.err = err
			o.end = time.Now()
			return
		}
		o.view = jobView{}
		if err := json.Unmarshal(body, &o.view); err != nil {
			o.err = fmt.Errorf("decoding job: %w", err)
			o.end = time.Now()
			return
		}
	}
	o.end = time.Now()
	if o.view.Status != "done" {
		o.err = fmt.Errorf("job %s %s: %s", o.view.ID, o.view.Status, o.view.Error)
	}
}

func terminal(status string) bool {
	return status == "done" || status == "failed" || status == "canceled"
}

// read fetches a cached layout by digest.
func (c *client) read(o *op, digest string) {
	req, err := http.NewRequest(http.MethodGet, c.url(o.node, "/v1/layouts/"+digest), nil)
	if err != nil {
		o.err = err
		return
	}
	o.start = time.Now()
	o.raw, _, o.err = c.do(o, req)
	o.end = time.Now()
	o.finish()
}

// finish records a traced operation's root span.
func (o *op) finish() {
	if o.traced() {
		o.record("op."+o.kind, o.start, o.end)
	}
}

// serverTrace is the part of layoutd's GET /v1/jobs/{id}/trace document
// the cross-check folds.
type serverTrace struct {
	TraceID string `json:"trace_id"`
	Spans   []struct {
		Name    string  `json:"name"`
		Node    string  `json:"node"`
		StartMS float64 `json:"start_ms"`
		DurMS   float64 `json:"dur_ms"`
	} `json:"spans"`
}

// jobTrace fetches a finished job's span timeline from the node that
// answered it.
func (c *client) jobTrace(o *op) (*serverTrace, error) {
	if o.view.ID == "" {
		return nil, errors.New("no job id")
	}
	req, err := http.NewRequest(http.MethodGet, c.url(o.node, "/v1/jobs/"+o.view.ID+"/trace"), nil)
	if err != nil {
		return nil, err
	}
	probe := &op{}
	body, _, err := c.do(probe, req)
	if err != nil {
		return nil, err
	}
	var tv serverTrace
	if err := json.Unmarshal(body, &tv); err != nil {
		return nil, fmt.Errorf("decoding trace of %s: %w", o.view.ID, err)
	}
	return &tv, nil
}
