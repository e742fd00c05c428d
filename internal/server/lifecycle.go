package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"codelayout/internal/obs"
)

// The job lifecycle, one for every kind. A handler builds the job with
// newJob and either answers it from a content-addressed cache
// (answerHit) or hands it to the pool through admit, the only way onto
// the queue. The pool task is runTask: beginJob, the kind's compute
// step, then complete, fail or cancel. finish is the single exit of
// every terminal job.

// newJob builds a queued job under the submission's trace ID, logger
// and span recorder, with its own lifetime context and a deadline
// stamped at acceptance, so queue wait counts against it.
func (s *Server) newJob(sub *submission, kind, digest, progName, optName string) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	id := s.newJobID()
	now := time.Now()
	return &Job{
		id:       id,
		kind:     kind,
		status:   StatusQueued,
		digest:   digest,
		created:  now,
		ctx:      ctx,
		cancel:   cancel,
		deadline: now.Add(s.cfg.JobTimeout),
		traceID:  sub.traceID,
		rec:      sub.rec,
		logger:   sub.logger.With("job", id),
		progName: progName,
		optName:  optName,
	}
}

// admit tracks the job and submits its pool task: the only way onto
// the queue. When the queue is full it drops the job again, releases
// its context, answers 429 and reports false; the caller then does its
// own cleanup and must not answer.
func (s *Server) admit(w http.ResponseWriter, j *Job, task func(context.Context)) bool {
	s.storeJob(j)
	if s.pool.TrySubmit(task) {
		s.metrics.accepted.Inc()
		return true
	}
	s.dropJob(j.id)
	j.cancel()
	s.metrics.rejected.Inc()
	j.logger.Warn("job rejected: queue full", "kind", j.kind)
	tooBusy(w, errors.New("job queue full"))
	return false
}

// tooBusy answers 429 with Retry-After: the backpressure signal of a
// full job queue or upload-session table.
func tooBusy(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests, err)
}

// answerHit completes a job from its cached document and answers 200:
// the job is tracked and counted accepted, but never queues.
func (s *Server) answerHit(w http.ResponseWriter, j *Job, doc document) {
	j.complete(doc, true)
	s.storeJob(j)
	s.metrics.accepted.Inc()
	s.finish(j)
	writeJSON(w, http.StatusOK, j.view())
}

// runTask is the pool task of every job kind. compute produces the
// job's document and reports whether it came from a cache. A computed
// document is stamped with compute's wall time and handed to publish,
// which puts it into its content-addressed cache, before the job
// completes; a cached one completes unchanged.
func runTask[D document](s *Server, poolCtx context.Context, j *Job,
	compute func(context.Context) (D, bool, error), publish func(context.Context, D)) {
	ctx, cleanup, ok := s.beginJob(poolCtx, j)
	if !ok {
		return
	}
	defer cleanup()
	start := time.Now()
	doc, cached, err := compute(ctx)
	if err != nil {
		s.failOrCancel(j, err)
		return
	}
	if !cached {
		*doc.elapsed() = float64(time.Since(start)) / float64(time.Millisecond)
		publish(ctx, doc)
		s.metrics.completed.Inc()
	}
	j.complete(doc, cached)
	s.finish(j)
}

// beginJob is the front half of every pool task: record queue wait
// into the job's timeline, bind the deadline and the job's own context
// (DELETE cancellation) onto the pipeline context, and move the job to
// running. It reports false — after finalizing the job when needed — if
// the work must be skipped (expired in queue, or canceled while
// queued); on true the caller owns cleanup and must defer it.
func (s *Server) beginJob(poolCtx context.Context, j *Job) (context.Context, func(), bool) {
	// The time between acceptance and this worker picking the task up
	// is queue wait; record it into the job's own timeline (the pool
	// hook feeds the histogram).
	if j.rec != nil {
		j.rec.Record("queue.wait", j.created, time.Since(j.created))
	}
	ctx, cancel := context.WithDeadline(poolCtx, j.deadline)
	// Propagate a DELETE arriving after the job started into the
	// pipeline context.
	stop := context.AfterFunc(j.ctx, cancel)
	cleanup := func() { stop(); cancel() }
	ctx = obs.WithTraceID(obs.WithLogger(obs.WithRecorder(ctx, j.rec), j.logger), j.traceID)
	// Start before the expiry check: a DELETE while queued also fires
	// j.ctx, and must leave the job canceled, not failed.
	if !j.tryStart() {
		// Canceled while queued: the DELETE handler already counted it.
		cleanup()
		return nil, nil, false
	}
	if err := ctx.Err(); err != nil {
		cleanup()
		j.fail(fmt.Errorf("job expired before running: %w", err))
		s.metrics.failed.Inc()
		s.finish(j)
		return nil, nil, false
	}
	j.logger.Info("job started",
		"queue_wait_ms", float64(time.Since(j.created))/float64(time.Millisecond))
	return ctx, cleanup, true
}

// failOrCancel finalizes a job whose pipeline returned an error: a job
// the client moved to canceling lands in canceled, anything else in
// failed.
func (s *Server) failOrCancel(j *Job, err error) {
	if j.statusNow() == StatusCanceling {
		j.finalizeCanceled()
		s.metrics.canceled.Inc()
	} else {
		j.fail(err)
		s.metrics.failed.Inc()
	}
	s.finish(j)
}

// finish is the single exit point for every terminal job: fold the
// job's spans into the per-phase histograms, release its in-flight
// bytes, push a summary onto the debug ring, and log the outcome. Call
// exactly once per job, after its terminal status is set.
func (s *Server) finish(j *Job) {
	var spans []obs.SpanData
	if j.rec != nil {
		spans, _ = j.rec.Snapshot()
	}
	s.metrics.observePhases(spans)
	if n := j.releaseBytes(); n > 0 {
		s.metrics.inflightBytes.Add(-n)
	}
	v := j.view()
	sum := jobSummary{
		ID:        v.ID,
		Kind:      v.Kind,
		TraceID:   v.TraceID,
		Status:    v.Status,
		Prog:      j.progName,
		Optimizer: j.optName,
		Cached:    v.Cached,
		Error:     v.Error,
		ElapsedMS: j.elapsedMS(),
	}
	s.ring.push(sum)
	logger := j.logger
	if logger == nil {
		logger = obs.NopLogger
	}
	switch v.Status {
	case StatusFailed:
		logger.Error("job failed", "error", v.Error, "spans", len(spans))
	case StatusCanceled:
		logger.Info("job canceled", "spans", len(spans))
	default:
		logger.Info("job finished",
			"cached", v.Cached, "elapsed_ms", sum.ElapsedMS, "spans", len(spans))
	}
}
