package server

import (
	"context"
	"testing"
)

// mapBlobs is an in-memory durable tier.
type mapBlobs map[string][]byte

func (m mapBlobs) Get(key string) ([]byte, bool) { d, ok := m[key]; return d, ok }
func (m mapBlobs) Put(key string, data []byte)   { m[key] = data }

// checkDocCache drives one document type through the durable tier: a
// document put by one cache is served from disk by a fresh one, and a
// blob whose digest differs from its key (or that does not decode) is
// treated as absent.
func checkDocCache[T digested](t *testing.T, prefix string, mk func(digest string) *T) {
	t.Helper()
	ctx := context.Background()
	disk := mapBlobs{}
	c := newDocCache[T](disk, prefix)
	c.put(ctx, mk("aa"))
	if c.len() != 1 {
		t.Fatalf("prefix %q: len = %d, want 1", prefix, c.len())
	}
	if _, ok := disk[prefix+"aa"]; !ok {
		t.Fatalf("prefix %q: put did not reach the durable tier", prefix)
	}

	fresh := newDocCache[T](disk, prefix)
	if d, ok := fresh.get(ctx, "aa"); !ok || (*d).digest() != "aa" {
		t.Fatalf("prefix %q: disk fall-through missed the stored document", prefix)
	}
	if fresh.len() != 1 {
		t.Fatalf("prefix %q: disk hit did not repopulate memory", prefix)
	}

	disk[prefix+"bb"] = disk[prefix+"aa"] // a blob naming another digest
	if _, ok := fresh.get(ctx, "bb"); ok {
		t.Fatalf("prefix %q: blob whose digest differs from its key was served", prefix)
	}
	disk[prefix+"cc"] = []byte("not json")
	if _, ok := fresh.get(ctx, "cc"); ok {
		t.Fatalf("prefix %q: undecodable blob was served", prefix)
	}
	fresh.drop("aa")
	if fresh.len() != 0 {
		t.Fatalf("prefix %q: drop left %d documents in memory", prefix, fresh.len())
	}
}

func TestDocCacheSelfCheck(t *testing.T) {
	checkDocCache(t, "", func(d string) *Result { return &Result{Digest: d, Prog: "p"} })
	checkDocCache(t, pairStoreKey, func(d string) *CorunDoc { return &CorunDoc{Digest: d, PairCost: 1} })
	checkDocCache(t, scheduleStoreKey, func(d string) *ScheduleDoc { return &ScheduleDoc{Digest: d} })
}
