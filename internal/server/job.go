package server

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"codelayout/internal/core"
	"codelayout/internal/obs"
)

// Result is the completed output of one optimization job — what the
// content-addressed cache stores and `GET /v1/layouts/{digest}` serves.
type Result struct {
	// Digest is the content address: SHA-256 over the trace digest, the
	// optimizer name, and the request parameters.
	Digest string `json:"digest"`
	// TraceDigest is the SHA-256 of the uploaded trace bytes.
	TraceDigest string `json:"traceDigest"`
	Prog        string `json:"prog"`
	Optimizer   string `json:"optimizer"`
	// Report is the pipeline's transformation report, including the
	// optimized code-unit sequence.
	Report core.Report `json:"report"`
	// MissBefore/MissAfter are the simulated solo i-cache miss ratios of
	// the uploaded trace replayed through the original and the optimized
	// layout; MissReduction is the relative improvement.
	MissBefore    float64 `json:"missBefore"`
	MissAfter     float64 `json:"missAfter"`
	MissReduction float64 `json:"missReduction"`
	// ElapsedMS is the computing job's wall time; a hit returns the
	// stored result unchanged.
	ElapsedMS float64 `json:"elapsedMS"`
}

// document is a finished job's output: an optimization Result, a
// CorunDoc or a ScheduleDoc. elapsed addresses its ElapsedMS, the
// computing job's wall time.
type document interface {
	elapsed() *float64
}

func (r *Result) elapsed() *float64      { return &r.ElapsedMS }
func (d *CorunDoc) elapsed() *float64    { return &d.ElapsedMS }
func (d *ScheduleDoc) elapsed() *float64 { return &d.ElapsedMS }

// Job states, in lifecycle order. For optimization jobs, Canceled is
// reachable only from Queued (via DELETE /v1/jobs/{id}); a running
// optimization is past the point of no return. Co-run and schedule jobs
// are additionally cancelable while running: DELETE moves them to
// Canceling (their context fires), and the worker finalizes to Canceled
// when the pipeline observes the cancellation.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusCanceling = "canceling"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCanceled  = "canceled"
)

// Job kinds. The zero value is an optimization job, keeping the wire
// format of the original endpoint unchanged.
const (
	jobKindOptimize = ""
	jobKindCorun    = "corun"
	jobKindSchedule = "schedule"
)

// Job is one submission's mutable state. All fields behind mu except
// the lifetime handles (ctx, cancel, deadline) and the observability
// handles (traceID, rec, logger), which newJob sets once and are
// read-only after; the JSON view is built under the lock.
type Job struct {
	mu       sync.Mutex
	id       string
	kind     string // jobKindOptimize (zero), jobKindCorun, jobKindSchedule
	status   string
	cached   bool
	err      string
	doc      document // set by complete
	digest   string
	created  time.Time
	started  time.Time
	finished time.Time
	// ctx is the job's own lifetime context; cancel tears it down, called
	// by DELETE and by job completion, so the pipeline stops even if the
	// job slipped into running between the status check and the cancel.
	// deadline bounds the job from acceptance, queue wait included.
	ctx      context.Context
	cancel   func()
	deadline time.Time

	// traceID correlates every log line, span, and debug summary the
	// job produces.
	traceID string
	// rec is the job's bounded span buffer, served at
	// GET /v1/jobs/{id}/trace.
	rec *obs.Recorder
	// logger is pre-bound with trace_id and job id.
	logger *slog.Logger
	// progName/optName feed the debug-ring summary.
	progName string
	optName  string
	// traceBytes is the upload size counted in layoutd_inflight_bytes
	// from the end of its upload until finish (holdBytes, releaseBytes).
	traceBytes int64
}

// jobView is the wire representation of a job. Kind is empty for
// optimization jobs, so their wire format is unchanged; corun and
// schedule jobs carry their documents in dedicated fields.
type jobView struct {
	ID       string       `json:"id"`
	Kind     string       `json:"kind,omitempty"`
	Status   string       `json:"status"`
	Digest   string       `json:"digest"`
	TraceID  string       `json:"traceId,omitempty"`
	Cached   bool         `json:"cached"`
	Error    string       `json:"error,omitempty"`
	Result   *Result      `json:"result,omitempty"`
	Corun    *CorunDoc    `json:"corun,omitempty"`
	Schedule *ScheduleDoc `json:"schedule,omitempty"`
}

// setDigest publishes a content address learned after acceptance — a
// submission only knows its trace digest at end-of-stream.
func (j *Job) setDigest(d string) {
	j.mu.Lock()
	j.digest = d
	j.mu.Unlock()
}

// holdBytes counts an upload's size in the in-flight gauge until finish
// releases it. A job already terminal is not counted: its finish may
// have run. Adding under j.mu orders the add before the release.
func (j *Job) holdBytes(n int64, inflight *obs.Gauge) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.terminalLocked() {
		j.traceBytes = n
		inflight.Add(n)
	}
}

// releaseBytes hands back the bytes holdBytes recorded, once.
func (j *Job) releaseBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.traceBytes
	j.traceBytes = 0
	return n
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() jobView {
	v := jobView{
		ID:      j.id,
		Kind:    j.kind,
		Status:  j.status,
		Digest:  j.digest,
		TraceID: j.traceID,
		Cached:  j.cached,
		Error:   j.err,
	}
	switch d := j.doc.(type) {
	case *Result:
		v.Result = d
	case *CorunDoc:
		v.Corun = d
	case *ScheduleDoc:
		v.Schedule = d
	}
	return v
}

// spanView is one span in the wire timeline. Node names the cluster
// member that recorded the span; it is empty on a single node and
// filled in by the cross-node trace assembly (see fwdtrace.go).
type spanView struct {
	Name    string           `json:"name"`
	Node    string           `json:"node,omitempty"`
	StartMS float64          `json:"start_ms"`
	DurMS   float64          `json:"dur_ms"` // -1 while still in progress
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// traceView is the wire representation of GET /v1/jobs/{id}/trace:
// the job's recorded span timeline, offsets relative to submission.
// BeginUnixNS anchors the timeline to wall time so a non-owner can
// merge its forward spans onto the owner's offsets; Nodes lists every
// cluster member contributing spans (empty single-node).
type traceView struct {
	JobID       string     `json:"job_id"`
	TraceID     string     `json:"trace_id"`
	Status      string     `json:"status"`
	BeginUnixNS int64      `json:"begin_unix_ns,omitempty"`
	Nodes       []string   `json:"nodes,omitempty"`
	Spans       []spanView `json:"spans"`
	Dropped     int64      `json:"dropped,omitempty"`
}

func (j *Job) traceTimeline() traceView {
	tv := traceView{
		JobID:   j.id,
		TraceID: j.traceID,
		Status:  j.statusNow(),
	}
	if j.rec == nil {
		return tv
	}
	tv.BeginUnixNS = j.rec.Begin().UnixNano()
	spans, dropped := j.rec.Snapshot()
	tv.Dropped = dropped
	tv.Spans = make([]spanView, len(spans))
	for i, sd := range spans {
		sv := spanView{
			Name:    sd.Name,
			StartMS: float64(sd.Start) / float64(time.Millisecond),
			DurMS:   float64(sd.Dur) / float64(time.Millisecond),
		}
		if sd.Dur < 0 {
			sv.DurMS = -1
		}
		if sd.NAttr > 0 {
			sv.Attrs = make(map[string]int64, sd.NAttr)
			for a := 0; a < sd.NAttr; a++ {
				sv.Attrs[sd.Attrs[a].Key] = sd.Attrs[a].Value
			}
		}
		tv.Spans[i] = sv
	}
	return tv
}

// tryStart moves a queued job to running; it reports false when the
// job was canceled while waiting in the pool queue, in which case the
// worker must skip it.
func (j *Job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	return true
}

// cancelQueued moves a queued job to canceled and fires its context,
// returning the view at the transition. It reports false — without
// changing anything — when the job already started or finished (the
// DELETE handler's 409).
func (j *Job) cancelQueued(now time.Time) (jobView, bool) {
	j.mu.Lock()
	if j.status != StatusQueued {
		j.mu.Unlock()
		return jobView{}, false
	}
	j.status = StatusCanceled
	j.err = "canceled before running"
	j.finished = now
	v := j.viewLocked()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return v, true
}

// cancelRunning moves a running cancelable job to canceling and fires
// its context; the worker observes the cancellation in its pipeline and
// finalizes to canceled. It returns the view at the transition, which
// the worker may overtake as soon as the context fires, and reports
// false when the job is not running.
func (j *Job) cancelRunning() (jobView, bool) {
	j.mu.Lock()
	if j.status != StatusRunning {
		j.mu.Unlock()
		return jobView{}, false
	}
	j.status = StatusCanceling
	v := j.viewLocked()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return v, true
}

// finalizeCanceled completes a canceling job's teardown: the worker
// calls it after the pipeline unwound from the fired context.
func (j *Job) finalizeCanceled() {
	j.mu.Lock()
	j.status = StatusCanceled
	j.err = "canceled while running"
	j.finished = time.Now()
	j.mu.Unlock()
}

// statusNow returns the current status string.
func (j *Job) statusNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// complete finishes a job of any kind with its document; cached marks
// one answered from a content-addressed cache.
func (j *Job) complete(doc document, cached bool) {
	j.mu.Lock()
	j.status = StatusDone
	j.doc = doc
	j.cached = cached
	j.finished = time.Now()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel() // release the job context's resources
	}
}

func (j *Job) fail(err error) {
	j.mu.Lock()
	j.status = StatusFailed
	j.err = err.Error()
	j.finished = time.Now()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// terminalLocked reports whether the job reached a terminal state;
// j.mu must be held.
func (j *Job) terminalLocked() bool {
	return j.status == StatusDone || j.status == StatusFailed || j.status == StatusCanceled
}

// elapsedMS is the wall time a terminal job reports: a hit's own, from
// acceptance to completion, since its document is returned unchanged
// and carries the computing job's; otherwise its document's ElapsedMS,
// or 0 without one.
func (j *Job) elapsedMS() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.cached:
		return float64(j.finished.Sub(j.created)) / float64(time.Millisecond)
	case j.doc != nil:
		return *j.doc.elapsed()
	}
	return 0
}

// terminal returns the completion time of a done, failed, or canceled
// job; ok is false while the job is still queued or running.
func (j *Job) terminal() (fin time.Time, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() {
		return j.finished, true
	}
	return time.Time{}, false
}
