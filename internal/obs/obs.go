// Package obs is layoutd's dependency-free observability subsystem:
// structured logging, in-process tracing, and a metrics registry, all
// carried through the pipeline on context.Context.
//
// The three parts:
//
//   - Structured logging: NewLogger builds a slog JSON logger; WithLogger
//     / Logger carry a request- or job-scoped logger (pre-bound with its
//     trace_id) through the pipeline, so every log line a job emits —
//     from HTTP accept through the worker pool into the analysis kernels
//     and the durable store — carries the same trace_id.
//
//   - In-process tracing: a Recorder is a bounded per-job span buffer;
//     StartSpan(ctx, "affinity.hierarchy") records a named span with
//     start offset, duration, and a few integer attributes into the
//     recorder riding ctx. The hot path (StartSpan + End with a
//     non-full recorder) performs zero heap allocations, so spans are
//     safe inside the zero-allocation analysis kernels. Spans beyond
//     the buffer bound are dropped and counted, never grown.
//
//   - Metrics: Registry holds counters, gauges, and histograms —
//     optionally with one label dimension — and renders a snapshot in
//     the Prometheus text exposition format. Counter.Inc and
//     Histogram.Observe are lock-free atomics with zero allocations.
//
// The package deliberately depends only on the standard library, and on
// nothing else in this repository, so every layer (server, store,
// parallel pool, analysis kernels) can import it without cycles.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
	"sync/atomic"
)

// ctxKey is the private context key space.
type ctxKey int

const (
	loggerKey ctxKey = iota
	recorderKey
	traceIDKey
)

// NewTraceID returns a fresh 32-hex-character trace ID — the W3C trace
// context width, so layoutd trace IDs drop straight into a traceparent
// header; see ValidTraceID.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively impossible on supported
		// platforms; fall back to a process-local sequence rather than
		// panicking in a request path.
		n := fallbackID.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * (i % 8)))
		}
	}
	return hex.EncodeToString(b[:])
}

// NewSpanID returns a fresh 16-hex-character span ID for outbound
// traceparent headers.
func NewSpanID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		n := fallbackID.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

var fallbackID atomic.Uint64

// WithTraceID returns a context carrying the trace ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey, id)
}

// TraceID returns the context's trace ID, or "" when absent.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey).(string)
	return id
}

// NewLogger builds a JSON structured logger writing to w at the given
// level. It is what cmd/layoutd installs; tests point w at a buffer to
// assert on log lines.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// nopHandler discards every record; NopLogger is the zero-cost default
// when no logger is configured.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// NopLogger discards everything. Logger(ctx) returns it when the
// context carries no logger, so call sites never nil-check.
var NopLogger = slog.New(nopHandler{})

// WithLogger returns a context carrying l; pre-bind per-job attributes
// (trace_id, job id) with l.With before attaching.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey, l)
}

// Logger returns the context's logger, or NopLogger when absent.
func Logger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok && l != nil {
		return l
	}
	return NopLogger
}

// WithRecorder returns a context carrying the span recorder; StartSpan
// records into it.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, recorderKey, r)
}

// RecorderFrom returns the context's span recorder, or nil.
func RecorderFrom(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey).(*Recorder)
	return r
}
