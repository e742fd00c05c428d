package flathash

import (
	"math/rand"
	"testing"
)

// pairKey mirrors the packing the analysis kernels use: two distinct
// int32 symbols, smaller first, never producing key 0.
func pairKey(a, b int32) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(int32(b))&0xffffffff
}

func TestSum64MatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Sum64
	ref := make(map[int64]int64)
	for i := 0; i < 20000; i++ {
		a, b := int32(rng.Intn(200)), int32(rng.Intn(200))
		if a == b {
			b = a + 1
		}
		k := pairKey(a, b)
		d := int64(rng.Intn(5) + 1)
		tab.Add(k, d)
		ref[k] += d
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
	}
	for k, v := range ref {
		if got := tab.Get(k); got != v {
			t.Fatalf("Get(%d) = %d, want %d", k, got, v)
		}
	}
	if got := tab.Get(pairKey(500, 501)); got != 0 {
		t.Fatalf("absent key = %d, want 0", got)
	}
	seen := 0
	tab.ForEach(func(k, v int64) {
		if ref[k] != v {
			t.Fatalf("ForEach(%d) = %d, want %d", k, v, ref[k])
		}
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("ForEach visited %d keys, want %d", seen, len(ref))
	}
}

func TestSum64Reset(t *testing.T) {
	var tab Sum64
	tab.Add(pairKey(1, 2), 7)
	tab.Reset()
	if tab.Len() != 0 || tab.Get(pairKey(1, 2)) != 0 {
		t.Fatal("Reset did not clear the table")
	}
	tab.Add(pairKey(1, 2), 3)
	if got := tab.Get(pairKey(1, 2)); got != 3 {
		t.Fatalf("post-reset Get = %d, want 3", got)
	}
}

func TestSlab32MatchesMap(t *testing.T) {
	const stride = 6
	rng := rand.New(rand.NewSource(2))
	var tab Slab32
	tab.Init(stride)
	ref := make(map[int64][]uint32)
	for i := 0; i < 20000; i++ {
		a, b := int32(rng.Intn(150)), int32(rng.Intn(150))
		if a == b {
			b = a + 1
		}
		k := pairKey(a, b)
		d := rng.Intn(stride)
		tab.Counters(k)[d]++
		if ref[k] == nil {
			ref[k] = make([]uint32, stride)
		}
		ref[k][d]++
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
	}
	for k, want := range ref {
		got := tab.Lookup(k)
		if got == nil {
			t.Fatalf("Lookup(%d) = nil", k)
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("counters(%d)[%d] = %d, want %d", k, d, got[d], want[d])
			}
		}
	}
	if tab.Lookup(pairKey(300, 301)) != nil {
		t.Fatal("Lookup of absent key returned a block")
	}
}

func TestSlab32MergeFrom(t *testing.T) {
	const stride = 4
	var a, b Slab32
	a.Init(stride)
	b.Init(stride)
	a.Counters(pairKey(1, 2))[0] = 5
	a.Counters(pairKey(1, 3))[1] = 1
	b.Counters(pairKey(1, 2))[0] = 2
	b.Counters(pairKey(1, 2))[3] = 9
	b.Counters(pairKey(4, 5))[2] = 7
	a.MergeFrom(&b)
	if got := a.Lookup(pairKey(1, 2)); got[0] != 7 || got[3] != 9 {
		t.Fatalf("merged (1,2) = %v", got)
	}
	if got := a.Lookup(pairKey(1, 3)); got[1] != 1 {
		t.Fatalf("merged (1,3) = %v", got)
	}
	if got := a.Lookup(pairKey(4, 5)); got[2] != 7 {
		t.Fatalf("merged (4,5) = %v", got)
	}
	if a.Len() != 3 {
		t.Fatalf("merged Len = %d, want 3", a.Len())
	}
}

func TestSlab32InitReuse(t *testing.T) {
	var tab Slab32
	tab.Init(3)
	tab.Counters(pairKey(1, 2))[2] = 42
	tab.Init(3)
	if tab.Len() != 0 {
		t.Fatal("Init did not clear the table")
	}
	// The reused slab must come back zeroed.
	if got := tab.Counters(pairKey(1, 2)); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("reused slab not zeroed: %v", got)
	}
}

// TestSlab32SteadyStateAllocs: after warm-up, re-accumulating into an
// Init-cleared table allocates nothing.
func TestSlab32SteadyStateAllocs(t *testing.T) {
	var tab Slab32
	fill := func() {
		tab.Init(8)
		for a := int32(0); a < 64; a++ {
			for b := a + 1; b < 64; b += 3 {
				tab.Counters(pairKey(a, b))[int(b)%8]++
			}
		}
	}
	fill() // warm up capacity
	allocs := testing.AllocsPerRun(10, fill)
	if allocs != 0 {
		t.Fatalf("steady-state fill allocated %.1f times per run, want 0", allocs)
	}
}

func TestSum64CopyFrom(t *testing.T) {
	var src, dst Sum64
	for i := int32(1); i <= 500; i++ {
		src.Add(pairKey(i, i+1), int64(i))
	}
	dst.Add(pairKey(7, 9), 1) // replaced wholesale by the copy
	dst.CopyFrom(&src)
	if dst.Len() != src.Len() || dst.Get(pairKey(7, 9)) != 0 {
		t.Fatalf("copy has %d keys (want %d) and stale key value %d", dst.Len(), src.Len(), dst.Get(pairKey(7, 9)))
	}
	for i := int32(1); i <= 500; i++ {
		if got := dst.Get(pairKey(i, i+1)); got != int64(i) {
			t.Fatalf("copy Get(%d) = %d, want %d", i, got, i)
		}
	}
	dst.Add(pairKey(1, 2), 100)
	dst.Add(pairKey(600, 601), 1)
	if src.Get(pairKey(1, 2)) != 1 || src.Get(pairKey(600, 601)) != 0 {
		t.Fatal("writes to the copy reached the source")
	}
	var small Sum64
	small.CopyFrom(&dst) // into a table too small to reuse
	if small.Len() != dst.Len() || small.Get(pairKey(600, 601)) != 1 {
		t.Fatal("copy into an empty table differs")
	}
}
