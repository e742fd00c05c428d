package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"

	"codelayout/internal/cachesim"
	"codelayout/internal/core"
	"codelayout/internal/ir"
	"codelayout/internal/layout"
	"codelayout/internal/obs"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
)

// The submit pipeline. Every upload — POST /v1/jobs, raw or multipart,
// and resumable-upload finalize — takes this one path, for every
// optimizer. The request handler is the producer: it decodes the upload
// into fixed-size chunks, validates them against the program, and tees
// the raw container bytes to a disk spool. A pool worker is the
// consumer: it pushes the chunks into the optimizer's core.Feed as they
// arrive. Decoded memory is bounded by the ring below; when the worker
// falls behind (or has not started), the producer blocks waiting for a
// recycled buffer and TCP backpressure stalls the client. After
// end-of-stream the worker finishes the analysis and replays the spool
// once through two streaming cache simulations (original and optimized
// layouts) for the before/after miss ratios.
//
// Whether the analysis itself runs while the upload arrives is
// core.Feed's decision: the paper's affinity and TRG kernels do, at a
// prune bound covering the alphabet; every other optimizer collects the
// chunks and analyzes at Finish. Either way the Report is the one
// core.OptimizeCtx computes on the decoded trace.

const (
	// streamChunkRefs is the decode granularity of the streamed path:
	// one ring buffer holds this many block references (32 KiB).
	streamChunkRefs  = 8192
	streamChunkBytes = 4 * streamChunkRefs
	// minStreamBuffers is the ring floor — producer-held, in-channel,
	// and consumer-held buffers — below which the pipeline cannot
	// overlap at all.
	minStreamBuffers = 3
	// streamRetainMaxBytes caps the spooled traces retained for later
	// corun/schedule replay; larger uploads are analyzed but not kept
	// (re-buffering them would defeat the bounded ingest).
	streamRetainMaxBytes = 16 << 20
)

// streamRing is the bounded chunk pipe between one submission's
// producer (the request handler decoding the upload) and consumer (the
// pool worker feeding the optimizer). Buffers are allocated lazily up
// to the window bound and recycled through free.
//
// Shutdown protocol: only the producer closes chunks (always, success
// or failure, via closeChunks); only the consumer closes done (via
// fail). The consumer always drains chunks to the closure (abandon),
// so neither side can strand the other.
type streamRing struct {
	chunks   chan []int32
	free     chan []int32
	done     chan struct{}
	failOnce sync.Once

	maxBufs   int
	allocated int // producer-side only
	released  bool

	mu  sync.Mutex
	err error
}

func newStreamRing(window int64) *streamRing {
	maxBufs := int(window / streamChunkBytes)
	if maxBufs < minStreamBuffers {
		maxBufs = minStreamBuffers
	}
	return &streamRing{
		chunks:  make(chan []int32, maxBufs),
		free:    make(chan []int32, maxBufs),
		done:    make(chan struct{}),
		maxBufs: maxBufs,
	}
}

// getBuf returns an empty full-capacity buffer: a recycled one when
// available, a fresh allocation while under the window bound, else it
// blocks until the consumer recycles — the memory backpressure that
// ultimately stalls the upload. ok is false when the consumer aborted.
func (rg *streamRing) getBuf(s *Server) ([]int32, bool) {
	select {
	case b := <-rg.free:
		return b[:streamChunkRefs], true
	default:
	}
	if rg.allocated < rg.maxBufs {
		rg.allocated++
		s.addStreamBuffered(streamChunkBytes)
		return make([]int32, streamChunkRefs), true
	}
	select {
	case b := <-rg.free:
		return b[:streamChunkRefs], true
	case <-rg.done:
		return nil, false
	}
}

// send hands a filled buffer to the consumer. The channel's capacity
// equals the buffer bound, so this never blocks on a live consumer;
// the done arm covers a consumer that aborted mid-drain.
func (rg *streamRing) send(buf []int32) bool {
	select {
	case rg.chunks <- buf:
		return true
	case <-rg.done:
		return false
	}
}

// recycle returns a consumed buffer to the producer.
func (rg *streamRing) recycle(buf []int32) {
	select {
	case rg.free <- buf:
	default:
	}
}

// fail aborts the stream from the consumer side (feed error, job
// canceled before running): the producer unblocks and stops decoding,
// reporting the first error failed with.
func (rg *streamRing) fail(err error) {
	rg.mu.Lock()
	if rg.err == nil {
		rg.err = err
	}
	rg.mu.Unlock()
	rg.failOnce.Do(func() { close(rg.done) })
}

// abandon ends consumption: it unblocks the producer and drains every
// chunk it still sends. A no-op after the consumer drained a finished
// upload.
func (rg *streamRing) abandon() {
	rg.fail(errors.New("job ended before its upload finished"))
	for range rg.chunks {
	}
}

// closeChunks ends production. A nil perr means the upload completed
// and its facts are in the jobRequest; a non-nil one poisons the
// stream so the consumer aborts its feed.
func (rg *streamRing) closeChunks(perr error) {
	rg.mu.Lock()
	if perr != nil && rg.err == nil {
		rg.err = perr
	}
	rg.mu.Unlock()
	close(rg.chunks)
}

// error returns the error the stream failed with: the consumer's once
// done is closed, the producer's once chunks is.
func (rg *streamRing) error() error {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.err
}

// release returns the ring's buffer accounting to the gauge. Called by
// the producer after closeChunks; the consumer only ever holds one
// buffer transiently, so by then the count is stable.
func (rg *streamRing) release(s *Server) {
	if rg.released {
		return
	}
	rg.released = true
	s.streamBytes.Add(-int64(rg.allocated) * streamChunkBytes)
}

// addStreamBuffered bumps the in-flight gauge and its high-water mark.
func (s *Server) addStreamBuffered(n int64) {
	v := s.streamBytes.Add(n)
	for {
		p := s.streamPeak.Load()
		if v <= p || s.streamPeak.CompareAndSwap(p, v) {
			return
		}
	}
}

// jobRequest carries one accepted submission to its pool worker. The
// worker owns spoolPath from acceptance on and consumes rg. The handler
// fills in the upload's facts below before closing rg's chunks, so the
// worker reads them once it has drained the ring; it sets feed itself.
type jobRequest struct {
	sub       *submission
	rg        *streamRing
	spoolPath string

	feed        *core.Feed
	traceDigest string
	traceBytes  int64
	digest      string
}

// spoolDir is where submissions spool the raw upload; beside
// the upload sessions when configured, the system temp dir otherwise.
func (s *Server) spoolDir() string {
	if s.uploads != nil {
		return s.uploads.Dir()
	}
	return ""
}

// streamSubmit is the body of POST /v1/jobs: spool to a temp file while
// decoding into the ring, the job's worker already consuming.
func (s *Server) streamSubmit(ctx context.Context, w http.ResponseWriter, body io.Reader, sub *submission) {
	spool, err := os.CreateTemp(s.spoolDir(), "stream-*.cltr")
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("creating stream spool: %w", err))
		return
	}
	s.streamIngest(ctx, w, body, spool, spool.Name(), sub)
}

// streamIngest runs one submission end to end from the handler
// goroutine: queue the consumer first (so analysis can start
// with the first chunk), then produce until end-of-stream, then answer.
// body is the CLTR byte source; tee, when non-nil, receives a copy of
// the bytes at spoolPath (the finalize path passes tee nil because the
// spool already exists). On acceptance the consumer owns spoolPath.
func (s *Server) streamIngest(ctx context.Context, w http.ResponseWriter, body io.Reader, tee *os.File, spoolPath string, sub *submission) {
	req := &jobRequest{sub: sub, rg: newStreamRing(s.cfg.StreamWindow), spoolPath: spoolPath}
	j := s.newJob(sub, jobKindOptimize, "", sub.progName, sub.optName)
	if !s.admit(w, j, func(poolCtx context.Context) { s.runJob(poolCtx, j, req) }) {
		if tee != nil {
			tee.Close()
		}
		os.Remove(spoolPath)
		return
	}
	s.metrics.streamJobs.Inc()

	rg := req.rg
	digest, nbytes, refs, perr := s.streamProduce(ctx, body, tee, sub.prog, rg)
	if tee != nil {
		if cerr := tee.Close(); perr == nil && cerr != nil {
			perr = fmt.Errorf("closing stream spool: %w", cerr)
		}
	}
	if perr == nil {
		// The content address is known at end-of-stream; the answer below
		// carries it.
		req.traceDigest, req.traceBytes = digest, nbytes
		req.digest = resultDigest(digest, sub.progName, sub.optName, sub.pruneTopN)
		j.setDigest(req.digest)
	}
	rg.closeChunks(perr)
	rg.release(s)
	if perr != nil {
		sub.logger.Warn("upload failed", "job", j.id, "error", perr)
		httpError(w, badBodyStatus(perr), perr)
		return
	}
	j.holdBytes(nbytes, s.metrics.inflightBytes)
	j.logger.Info("job accepted",
		"prog", sub.progName, "opt", sub.optName, "prune", sub.pruneTopN,
		"trace_bytes", nbytes, "trace_refs", refs, "trace_digest", digest)
	writeJSON(w, http.StatusAccepted, j.view())
}

// streamProduce decodes the upload into ring chunks under a
// stream.decode span, fingerprinting every byte and teeing the raw
// container to the spool. Each chunk is checked against prog before it
// is sent, so a trace of the wrong program is a 400 on the upload
// whether or not its worker has started. It returns the upload's
// digest, size and reference count; the caller closes the chunk channel
// either way.
func (s *Server) streamProduce(ctx context.Context, body io.Reader, tee *os.File, prog *ir.Program, rg *streamRing) (digest string, nbytes int64, refs int, err error) {
	sp := obs.StartSpan(ctx, "stream.decode")
	defer sp.End()
	hr := trace.NewHashingReader(body)
	var src io.Reader = hr
	if tee != nil {
		src = io.TeeReader(hr, tee)
	}
	dec, err := trace.NewDecoder(src)
	if err != nil {
		return "", 0, 0, err
	}
	if dec.Len() == 0 {
		return "", 0, 0, errors.New("trace is empty")
	}
	for {
		buf, ok := rg.getBuf(s)
		if !ok {
			return "", 0, 0, rg.error()
		}
		n, err := dec.NextChunk(buf)
		if n > 0 {
			if cerr := core.CheckBlocks(prog, buf[:n]); cerr != nil {
				return "", 0, 0, cerr
			}
			refs += n
			if !rg.send(buf[:n]) {
				return "", 0, 0, rg.error()
			}
		} else {
			rg.recycle(buf)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", 0, 0, err
		}
	}
	// Drain trailing bytes so the digest covers the whole upload.
	if _, err := io.Copy(io.Discard, hr); err != nil {
		return "", 0, 0, err
	}
	sp.SetAttr("bytes", hr.BytesRead())
	sp.SetAttr("refs", int64(refs))
	return hr.Sum(), hr.BytesRead(), refs, nil
}

// runJob is the pool task behind every submission: runTask around the
// optimize span, in which the ring is consumed into the optimizer's
// feed, then finished, simulated and published — or answered from the
// content-addressed cache. The spool and the ring are released however
// the job ends.
func (s *Server) runJob(poolCtx context.Context, j *Job, req *jobRequest) {
	defer os.Remove(req.spoolPath)
	defer req.rg.abandon()
	runTask(s, poolCtx, j, func(ctx context.Context) (*Result, bool, error) {
		sp := obs.StartSpan(ctx, "optimize")
		defer sp.End()
		res, cached, err := s.consume(ctx, req)
		if cached {
			s.metrics.cacheHits.Inc()
		}
		return res, cached, err
	}, func(ctx context.Context, res *Result) {
		s.cache.put(ctx, res)
		s.metrics.latency.With(req.sub.optName).Observe(res.ElapsedMS)
	})
}

// consume is the worker half of a submission: feed chunks into the
// analysis as they decode, and at end-of-stream resolve the content
// address — a hit answers from the cache, a miss runs s.optimize. On
// a feed error it fails the ring so the producer stops at once; runJob
// drains whatever is left.
func (s *Server) consume(ctx context.Context, req *jobRequest) (res *Result, cached bool, err error) {
	sub, rg := req.sub, req.rg
	opt := sub.opt
	opt.PruneTopN = sub.pruneTopN
	opt.Workers = s.cfg.OptWorkers
	opt.Arena = s.getArena()
	defer s.putArena(opt.Arena)

	feed, err := opt.NewFeed(ctx, sub.prog)
	if err != nil {
		rg.fail(err)
		return nil, false, err
	}
	defer feed.Abort() // recycles kernel buffers unless Finish ran
	fsp := obs.StartSpan(ctx, "stream.feed")
	chunks := 0
	for buf := range rg.chunks {
		chunks++
		s.metrics.streamChunks.Inc()
		err := feed.Feed(ctx, buf)
		rg.recycle(buf)
		if err != nil {
			fsp.End()
			rg.fail(err)
			return nil, false, err
		}
	}
	fsp.SetAttr("chunks", int64(chunks))
	fsp.End()
	if perr := rg.error(); perr != nil {
		return nil, false, fmt.Errorf("upload failed: %w", perr)
	}
	req.feed = feed
	// Content-addressed fast path: the digest is only known at
	// end-of-stream.
	if cres, ok := s.cache.get(ctx, req.digest); ok {
		return cres, true, nil
	}
	res, err = s.optimize(ctx, req)
	return res, false, err
}

// finishOptimize is the pipeline's back half, behind s.optimize: finish
// the fed analysis, replay the spool through the original and optimized
// layouts for the miss ratios, and retain the trace for co-runs.
func (s *Server) finishOptimize(ctx context.Context, req *jobRequest) (*Result, error) {
	sub := req.sub
	l, rep, err := req.feed.Finish(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("job deadline exceeded after optimization: %w", err)
	}
	before, after, err := s.replaySpool(ctx, sub.prog, l, req.spoolPath)
	if err != nil {
		return nil, err
	}
	s.retainSpool(ctx, req.traceDigest, req.spoolPath, req.traceBytes)
	return &Result{
		Digest:        req.digest,
		TraceDigest:   req.traceDigest,
		Prog:          sub.progName,
		Optimizer:     sub.opt.Name(),
		Report:        rep,
		MissBefore:    before,
		MissAfter:     after,
		MissReduction: stats.Reduction(before, after),
	}, nil
}

// replaySpool re-decodes the spooled container once, feeding the
// original and optimized layouts' streaming cache simulations in
// lockstep — the same one-pass bounded-memory discipline as the ingest
// itself, and the same miss ratios cachesim.SimulateSolo reports on the
// decoded trace.
func (s *Server) replaySpool(ctx context.Context, prog *ir.Program, l *layout.Layout, path string) (before, after float64, err error) {
	sp := obs.StartSpan(ctx, "cachesim.replay")
	defer sp.End()
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("reopening stream spool: %w", err)
	}
	defer f.Close()
	dec, err := trace.NewDecoder(f)
	if err != nil {
		return 0, 0, err
	}
	cfg := cachesim.L1IDefault
	orig := cachesim.NewSoloStream(cfg, layout.Original(prog))
	opt := cachesim.NewSoloStream(cfg, l)
	buf := make([]int32, streamChunkRefs)
	for {
		n, err := dec.NextChunk(buf)
		if n > 0 {
			orig.Feed(buf[:n])
			opt.Feed(buf[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
	}
	ro, rl := orig.Finish(), opt.Finish()
	sp.SetAttr("blocks", ro.Blocks)
	return ro.Stats.MissRatio(), rl.Stats.MissRatio(), nil
}

// retainSpool keeps an uploaded trace queryable by digest for the
// corun/schedule endpoints, up to a size cap: re-buffering an
// arbitrarily large spool would defeat the bounded-memory ingest, so
// huge traces are analyzed but not retained.
func (s *Server) retainSpool(ctx context.Context, digest, path string, size int64) {
	if size > streamRetainMaxBytes {
		obs.Logger(ctx).Info("trace not retained", "trace_digest", digest, "bytes", size)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	s.traces.put(ctx, digest, data)
}
