package server

import (
	"codelayout/internal/obs"
	"codelayout/internal/store"
)

// latencyBucketsMS are the per-optimizer latency histogram upper bounds
// in milliseconds (kept from the pre-registry exposition so dashboards
// survive the migration).
var latencyBucketsMS = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// serverMetrics is layoutd's telemetry, registered on one obs.Registry
// so job, pool, store, and phase metrics share a namespace and a single
// Prometheus exposition. Counters the request path increments live here
// as *obs.Counter (lock-free); values owned by other subsystems — pool
// queue depth, store stats — are registered as funcs read live at
// scrape time.
type serverMetrics struct {
	reg *obs.Registry

	accepted     *obs.Counter
	completed    *obs.Counter
	failed       *obs.Counter
	rejected     *obs.Counter
	canceled     *obs.Counter
	cacheHits    *obs.Counter
	spansDropped *obs.Counter

	corunJobs     *obs.Counter
	scheduleJobs  *obs.Counter
	schedulePairs *obs.Counter
	pairHits      *obs.Counter
	pairMisses    *obs.Counter

	inflightBytes *obs.Gauge

	// Streaming-ingest family.
	streamJobs    *obs.Counter
	streamChunks  *obs.Counter
	uploadResumes *obs.Counter

	// Cluster family; nil when the server runs single-node.
	peerForwards       *obs.CounterVec
	forwardErrors      *obs.Counter
	peerHealth         *obs.GaugeVec
	clusterFetches     *obs.Counter
	replicationDropped *obs.CounterVec
	replLag            *obs.Histogram
	replicateReceived  *obs.Counter // registered with the store family

	// Observability-plane family.
	events                 *obs.CounterVec // layoutd_events_total{kind}
	federationScrapeErrors *obs.Counter

	queueWait *obs.Histogram
	phase     *obs.HistogramVec
	latency   *obs.HistogramVec
}

// newServerMetrics registers every family. Registration order is
// exposition order. The store family is registered only when the server
// has a durable tier, matching the pre-registry behavior of omitting it
// when running memory-only.
func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{reg: r}

	m.accepted = r.Counter("layoutd_jobs_accepted_total",
		"Jobs accepted: admitted to the queue, or answered at once from the co-run or schedule document cache.")
	m.completed = r.Counter("layoutd_jobs_completed_total",
		"Jobs that computed their document (layout, co-run pair or schedule); cache hits are not counted.")
	m.failed = r.Counter("layoutd_jobs_failed_total", "Jobs that errored.")
	m.rejected = r.Counter("layoutd_jobs_rejected_total", "Submissions rejected with 429 (queue full).")
	m.canceled = r.Counter("layoutd_jobs_canceled_total",
		"Jobs canceled via DELETE /v1/jobs/{id}: queued jobs of any kind, and running co-run or schedule jobs.")
	m.cacheHits = r.Counter("layoutd_cache_hits_total", "Submissions served from the content-addressed cache.")
	m.corunJobs = r.Counter("layoutd_corun_jobs_total", "Co-run analysis requests accepted at POST /v1/corun.")
	m.scheduleJobs = r.Counter("layoutd_schedule_jobs_total", "Placement requests accepted at POST /v1/schedule.")
	m.schedulePairs = r.Counter("layoutd_schedule_pairs_total", "Interference-matrix pairs computed by co-run simulation for schedule jobs.")
	m.pairHits = r.Counter("layoutd_pair_cache_hits_total", "Pair lookups served from the content-addressed pair cache.")
	m.pairMisses = r.Counter("layoutd_pair_cache_misses_total", "Pair lookups that required a co-run analysis.")
	r.GaugeFunc("layoutd_queue_depth", "Jobs accepted but not yet running.",
		func() int64 { return int64(s.pool.QueueDepth()) })
	r.GaugeFunc("layoutd_jobs_running", "Jobs of every kind currently running on a pool worker.",
		func() int64 { return int64(s.pool.Running()) })
	r.GaugeFunc("layoutd_jobs_tracked", "Job-status records held (bounded by retention).",
		func() int64 { return int64(s.JobsTracked()) })
	m.inflightBytes = r.Gauge("layoutd_inflight_bytes",
		"Uploaded trace bytes of accepted jobs that have not finished.")
	m.spansDropped = r.Counter("layoutd_spans_dropped_total",
		"Spans lost to per-job trace buffer bounds.")
	m.streamJobs = r.Counter("layoutd_stream_jobs_total",
		"Optimization submissions accepted into the streaming submit pipeline.")
	m.streamChunks = r.Counter("layoutd_stream_chunks_total",
		"Decoded chunks fed into optimizer feeds.")
	m.uploadResumes = r.Counter("layoutd_upload_resumes_total",
		"Upload appends that resumed a session after an interrupted PATCH.")
	r.GaugeFunc("layoutd_stream_buffered_bytes",
		"Decoded chunk bytes in flight across submissions (bounded per submission by -stream-window).",
		func() int64 { return s.streamBytes.Load() })
	r.GaugeFunc("layoutd_stream_buffered_peak_bytes",
		"High-water mark of in-flight decoded chunk bytes.",
		func() int64 { return s.streamPeak.Load() })
	if s.uploads != nil {
		up := s.uploads
		r.GaugeFunc("layoutd_upload_sessions", "Open resumable upload sessions.",
			func() int64 { return int64(up.Len()) })
		r.CounterFunc("layoutd_upload_sessions_recovered_total",
			"Upload sessions recovered from a previous process by the startup scan.",
			func() int64 { return int64(up.Recovered()) })
	}

	if s.disk != nil {
		d := s.disk
		r.GaugeFunc("layoutd_store_state", "Durable store state: 1 = ok, 0 = degraded (memory-only).",
			func() int64 {
				if d.State() == store.StateOK {
					return 1
				}
				return 0
			})
		r.GaugeFunc("layoutd_store_blobs", "Layout blobs held on disk.",
			func() int64 { return int64(d.Stats().Blobs) })
		r.GaugeFunc("layoutd_store_bytes", "Payload bytes held on disk (LRU-bounded).",
			func() int64 { return d.Stats().Bytes })
		r.CounterFunc("layoutd_store_hits_total", "Cache lookups served from the on-disk store.",
			func() int64 { return d.Stats().Hits })
		r.CounterFunc("layoutd_store_writes_total", "Blobs durably written.",
			func() int64 { return d.Stats().Writes })
		r.CounterFunc("layoutd_store_write_errors_total", "Failed blob writes (each trips the breaker).",
			func() int64 { return d.Stats().WriteErrors })
		r.CounterFunc("layoutd_store_read_errors_total", "Blob read I/O errors (repeats trip the breaker).",
			func() int64 { return d.Stats().ReadErrors })
		r.CounterFunc("layoutd_store_dropped_writes_total", "Writes dropped (queue full or store degraded).",
			func() int64 { return d.Stats().Dropped })
		r.CounterFunc("layoutd_store_evictions_total", "Blobs evicted by the byte bound.",
			func() int64 { return d.Stats().Evictions })
		r.CounterFunc("layoutd_store_quarantined_total", "Blobs quarantined as truncated or corrupt.",
			func() int64 { return d.Stats().Quarantined })
		r.CounterFunc("layoutd_store_recoveries_total", "Degraded-to-ok breaker transitions.",
			func() int64 { return d.Stats().Recoveries })
		r.CounterFunc("layoutd_store_deletes_total", "Blobs deleted via DELETE /v1/store/{key}.",
			func() int64 { return d.Stats().Deletes })
		m.replicateReceived = r.Counter("layoutd_replicate_received_total",
			"Blobs accepted from peer replication pushes at PUT /v1/replicate/{key}.")
	}

	if cl := s.cluster; cl != nil {
		m.peerForwards = r.CounterVec("layoutd_peer_forwards_total",
			"Requests forwarded to the owning peer, by peer.", "peer")
		m.forwardErrors = r.Counter("layoutd_peer_forward_errors_total",
			"Forwards that failed and fell back to local service.")
		m.peerHealth = r.GaugeVec("layoutd_peer_health",
			"Last observed peer state: 2 = up, 1 = degraded, 0 = down.", "peer")
		m.clusterFetches = r.Counter("layoutd_cluster_fetch_total",
			"Blobs served by fetching from a peer on local store miss.")
		r.GaugeFunc("layoutd_replication_queue_depth", "Blobs awaiting write-behind replication push.",
			func() int64 { return int64(cl.QueueDepth()) })
		r.CounterFunc("layoutd_replication_pushed_total", "Blobs acknowledged by a replica.",
			func() int64 { return cl.ReplicationStats().Pushed })
		r.CounterFunc("layoutd_replication_errors_total", "Replication pushes failed after retries.",
			func() int64 { return cl.ReplicationStats().Errors })
		m.replicationDropped = r.CounterVec("layoutd_replication_dropped_total",
			"Replication enqueues dropped (queue full), by target peer. Anti-entropy repairs these.", "peer")
		r.CounterFunc("layoutd_replication_skipped_total",
			"Replication pushes short-circuited because the target peer was down (anti-entropy repairs these).",
			func() int64 { return cl.ReplicationStats().Skipped })
		m.replLag = r.Histogram("layoutd_replication_lag_seconds",
			"Queue wait between a blob's enqueue and its replication push.", nil)
		r.CounterFunc("layoutd_antientropy_sweeps_total",
			"Completed anti-entropy repair sweeps.",
			func() int64 { return cl.AntiEntropyStats().Sweeps })
		r.CounterFunc("layoutd_antientropy_repaired_total",
			"Keys re-pushed to a replica that was missing them.",
			func() int64 { return cl.AntiEntropyStats().Repaired })
		r.CounterFunc("layoutd_antientropy_bytes_total",
			"Payload bytes re-pushed by anti-entropy repair.",
			func() int64 { return cl.AntiEntropyStats().Bytes })
		r.GaugeFunc("layoutd_antientropy_last_sweep_seconds",
			"Unix time of the last completed anti-entropy sweep (0 until the first).",
			func() int64 { return cl.AntiEntropyStats().LastSweepUnix })
	}

	m.events = r.CounterVec("layoutd_events_total",
		"Structured state-transition events recorded in the /v1/debug/events ring, by kind.", "kind")
	m.federationScrapeErrors = r.Counter("layoutd_federation_scrape_errors_total",
		"Peer scrapes that failed during GET /v1/cluster/metrics federation.")
	rt := s.runtime
	r.GaugeFunc("layoutd_runtime_heap_bytes",
		"Live heap object bytes, from the runtime-telemetry sampler.",
		func() int64 { return rt.Last().HeapBytes })
	r.GaugeFunc("layoutd_runtime_goroutines",
		"Goroutine count, from the runtime-telemetry sampler.",
		func() int64 { return rt.Last().Goroutines })
	r.CounterFunc("layoutd_runtime_gc_cycles_total",
		"Completed GC cycles, from the runtime-telemetry sampler.",
		func() int64 { return rt.Last().GCCycles })
	r.GaugeFunc("layoutd_runtime_gc_pause_p99_ns",
		"Lifetime p99 GC stop-the-world pause, nanoseconds.",
		func() int64 { return rt.Last().GCPauseP99NS })
	r.GaugeFunc("layoutd_runtime_sched_latency_p99_ns",
		"Lifetime p99 goroutine scheduling latency, nanoseconds.",
		func() int64 { return rt.Last().SchedLatencyP99NS })

	m.queueWait = r.Histogram("layoutd_queue_wait_seconds",
		"Time jobs spend in the pool queue before a worker picks them up.", nil)
	m.phase = r.HistogramVec("layoutd_phase_seconds",
		"Wall time per pipeline phase, from per-job trace spans.", "phase", nil)
	m.latency = r.HistogramVec("layoutd_optimize_latency_ms",
		"Optimization latency per optimizer.", "optimizer", latencyBucketsMS)
	return m
}

// observePhases folds a job's completed trace spans into the per-phase
// histograms (in-progress spans, Dur < 0, are skipped).
func (m *serverMetrics) observePhases(spans []obs.SpanData) {
	for _, sd := range spans {
		if sd.Dur < 0 {
			continue
		}
		m.phase.With(sd.Name).Observe(sd.Dur.Seconds())
	}
}
