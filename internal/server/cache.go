package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"codelayout/internal/obs"
)

// resultDigest derives the cache key. The fields are length-prefixed by
// newline framing over hex/known-charset values, so distinct inputs
// cannot collide by concatenation.
func resultDigest(traceDigest, prog, optimizer string, pruneTopN int) string {
	h := sha256.New()
	fmt.Fprintf(h, "layoutd/v1\ntrace:%s\nprog:%s\nopt:%s\nprune:%d\n",
		traceDigest, prog, optimizer, pruneTopN)
	return hex.EncodeToString(h.Sum(nil))
}

// digested is a document that carries its own content address.
type digested interface {
	digest() string
}

func (r Result) digest() string      { return r.Digest }
func (d CorunDoc) digest() string    { return d.Digest }
func (d ScheduleDoc) digest() string { return d.Digest }

// docCache is the content-addressed store for JSON documents: optimization
// results (keyed by resultDigest, so resubmitting the same profile is
// served without recomputation and `GET /v1/layouts/{digest}` is a stable
// address for a layout), co-run pair documents and schedule documents.
//
// It is two-tiered: the in-memory map is the fast tier, and an optional
// persistent store (internal/store) is the durable tier, where documents
// live under prefix+digest. Puts land in memory synchronously and spill
// to disk behind the request path; a memory miss falls through to disk
// and repopulates memory, so documents computed before a restart keep
// being served.
type docCache[T digested] struct {
	mu     sync.RWMutex
	docs   map[string]*T
	disk   blobStore // nil: memory-only
	prefix string
}

func newDocCache[T digested](disk blobStore, prefix string) *docCache[T] {
	return &docCache[T]{docs: make(map[string]*T), disk: disk, prefix: prefix}
}

// get returns the cached document for the digest, if present, consulting
// the durable tier on a memory miss. The disk read is recorded as a
// store.read span on ctx's recorder, if any.
func (c *docCache[T]) get(ctx context.Context, key string) (*T, bool) {
	c.mu.RLock()
	d, ok := c.docs[key]
	c.mu.RUnlock()
	if ok || c.disk == nil {
		return d, ok
	}
	sp := obs.StartSpan(ctx, "store.read")
	data, ok := c.disk.Get(c.prefix + key)
	sp.SetAttr("bytes", int64(len(data)))
	sp.End()
	if !ok {
		return nil, false
	}
	var doc T
	if err := json.Unmarshal(data, &doc); err != nil || doc.digest() != key {
		// A verified blob that doesn't decode to its own digest is a
		// format drift or foreign file, not corruption; ignore it.
		return nil, false
	}
	c.mu.Lock()
	c.docs[key] = &doc
	c.mu.Unlock()
	return &doc, true
}

// put stores a document under its digest in both tiers. The durable
// write is write-behind: the store.write span covers only the marshal
// and enqueue, never the disk.
func (c *docCache[T]) put(ctx context.Context, doc *T) {
	key := (*doc).digest()
	c.mu.Lock()
	c.docs[key] = doc
	c.mu.Unlock()
	if c.disk == nil {
		return
	}
	sp := obs.StartSpan(ctx, "store.write")
	if data, err := json.Marshal(doc); err == nil {
		sp.SetAttr("bytes", int64(len(data)))
		c.disk.Put(c.prefix+key, data)
	}
	sp.End()
}

// drop purges the memory tier's copy of a digest (the admin DELETE path;
// the disk blob is removed separately).
func (c *docCache[T]) drop(key string) {
	c.mu.Lock()
	delete(c.docs, key)
	c.mu.Unlock()
}

// len returns the number of documents in the memory tier.
func (c *docCache[T]) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}
