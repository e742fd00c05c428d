package server

import (
	"bytes"
	"container/list"
	"context"
	"sync"

	"codelayout/internal/obs"
	"codelayout/internal/trace"
)

// traceStoreKey prefixes trace blobs in the durable store so they share
// the directory with layout results ("p-" pair docs and "s-" schedule
// docs likewise) without key collisions: result digests are bare hex.
const traceStoreKey = "t-"

// traceCache retains decoded uploads keyed by their trace digest so the
// scheduling endpoints can replay a profile that was submitted earlier
// without the client re-uploading it. Like docCache it is two-tiered:
// a bounded in-memory LRU of decoded traces in front of the durable
// store, which holds the canonical CLTR encoding. A memory miss decodes
// from disk and repopulates memory; an evicted or quarantined blob means
// the trace is gone and the caller reports 404.
type traceCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	disk    blobStore
}

type traceEntry struct {
	digest string
	tr     *trace.Trace
}

func newTraceCache(max int, disk blobStore) *traceCache {
	if max <= 0 {
		max = DefaultTraceCacheEntries
	}
	return &traceCache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		disk:    disk,
	}
}

// put retains an uploaded CLTR container under its digest (the key
// Result.TraceDigest records). With a durable tier the bytes go to disk
// as they are — the uploaded encoding is canonical, varint encodings
// being unique — and a later get decodes them into memory; memory-only,
// they are decoded into the LRU now.
func (c *traceCache) put(ctx context.Context, digest string, data []byte) {
	if c.disk != nil {
		sp := obs.StartSpan(ctx, "store.write")
		sp.SetAttr("bytes", int64(len(data)))
		c.disk.Put(traceStoreKey+digest, data)
		sp.End()
		return
	}
	if tr, err := trace.ReadFrom(bytes.NewReader(data)); err == nil {
		c.putMemory(digest, tr)
	}
}

// putMemory inserts into the LRU tier only; a digest already held is
// refreshed in place.
func (c *traceCache) putMemory(digest string, tr *trace.Trace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[digest]; ok {
		c.order.MoveToFront(e)
		return
	}
	c.entries[digest] = c.order.PushFront(&traceEntry{digest: digest, tr: tr})
	for len(c.entries) > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*traceEntry).digest)
	}
}

// get returns the retained trace for the digest, consulting the durable
// tier on a memory miss.
func (c *traceCache) get(ctx context.Context, digest string) (*trace.Trace, bool) {
	c.mu.Lock()
	if e, ok := c.entries[digest]; ok {
		c.order.MoveToFront(e)
		tr := e.Value.(*traceEntry).tr
		c.mu.Unlock()
		return tr, true
	}
	c.mu.Unlock()
	if c.disk == nil {
		return nil, false
	}
	sp := obs.StartSpan(ctx, "store.read")
	data, ok := c.disk.Get(traceStoreKey + digest)
	sp.SetAttr("bytes", int64(len(data)))
	sp.End()
	if !ok {
		return nil, false
	}
	tr, err := trace.ReadFrom(bytes.NewReader(data))
	if err != nil {
		// The store verified the blob's checksum, so a decode failure is
		// format drift or a foreign file, not corruption; treat as gone.
		return nil, false
	}
	c.putMemory(digest, tr) // already on disk
	return tr, true
}

// drop purges the memory tier's copy of a digest (the admin DELETE
// path; the disk blob is removed separately).
func (c *traceCache) drop(digest string) {
	c.mu.Lock()
	if e, ok := c.entries[digest]; ok {
		c.order.Remove(e)
		delete(c.entries, digest)
	}
	c.mu.Unlock()
}

// len reports the number of traces held in memory (for tests).
func (c *traceCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
