// Package flathash provides the open-addressed hash tables backing the
// analysis hot paths. The affinity and TRG kernels accumulate statistics
// keyed by packed symbol pairs (two int32 symbols in one int64); Go's
// built-in map costs a hashed lookup, possible bucket chase and write
// barrier per increment, which dominated both kernels' profiles. The
// tables here store key and value (or slab offset) side by side in one
// flat entry array with linear probing, so an increment is one
// multiply-shift hash, a probe over contiguous 16-byte entries — key and
// payload on the same cache line — and a plain store. A cleared table
// reuses its backing arrays, so steady-state accumulation allocates
// nothing.
//
// Keys are packed pairs of *distinct* symbols (pairKey(a, b) with
// a != b), which makes 0 — the packing of the impossible pair (0, 0) —
// a free empty-slot sentinel. The tables reject key 0 by documented
// contract rather than a branch per operation.
//
// None of the types are safe for concurrent use; the sharded analyses
// give each worker its own table and merge afterwards.
package flathash

// hash spreads a packed pair key over the table. Fibonacci hashing
// (multiplication by the 64-bit golden ratio, taking the top bits) is
// enough here: keys are already well-mixed pairs and the tables are
// power-of-two sized.
func hash(key int64, shift uint) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> shift)
}

const (
	// minCapacity keeps tiny tables from resizing several times while
	// they warm up.
	minCapacity = 64
	// maxLoadNum/maxLoadDen is the 13/16 (~0.8) load factor at which the
	// tables double. Linear probing degrades sharply past ~0.85.
	maxLoadNum = 13
	maxLoadDen = 16
)

// sumEntry is one Sum64 slot: key and accumulator share a cache line.
type sumEntry struct {
	key int64
	val int64
}

// Sum64 maps packed pair keys to int64 accumulators. It is the edge
// table of the TRG construction: Add is the per-interleaving increment.
// The zero value is ready to use.
type Sum64 struct {
	entries []sumEntry
	n       int
	shift   uint
}

// Len returns the number of distinct keys.
func (t *Sum64) Len() int { return t.n }

// Reset clears the table, keeping capacity for reuse.
func (t *Sum64) Reset() {
	for i := range t.entries {
		t.entries[i] = sumEntry{}
	}
	t.n = 0
}

// Add accumulates delta into the key's value. key must be non-zero.
func (t *Sum64) Add(key int64, delta int64) {
	if t.n*maxLoadDen >= len(t.entries)*maxLoadNum {
		t.grow()
	}
	i := hash(key, t.shift)
	mask := len(t.entries) - 1
	for {
		e := &t.entries[i]
		if e.key == key {
			e.val += delta
			return
		}
		if e.key == 0 {
			e.key = key
			e.val = delta
			t.n++
			return
		}
		i = (i + 1) & mask
	}
}

// Set stores val as the key's value, replacing any prior value. key
// must be non-zero. Storing 0 is allowed but indistinguishable from an
// absent key for Get.
func (t *Sum64) Set(key int64, val int64) {
	if t.n*maxLoadDen >= len(t.entries)*maxLoadNum {
		t.grow()
	}
	i := hash(key, t.shift)
	mask := len(t.entries) - 1
	for {
		e := &t.entries[i]
		if e.key == key {
			e.val = val
			return
		}
		if e.key == 0 {
			e.key = key
			e.val = val
			t.n++
			return
		}
		i = (i + 1) & mask
	}
}

// Get returns the key's value, 0 if absent. key must be non-zero.
func (t *Sum64) Get(key int64) int64 {
	if t.n == 0 {
		return 0
	}
	i := hash(key, t.shift)
	mask := len(t.entries) - 1
	for {
		e := &t.entries[i]
		if e.key == key {
			return e.val
		}
		if e.key == 0 {
			return 0
		}
		i = (i + 1) & mask
	}
}

// CopyFrom makes t a copy of src, reusing t's backing array when it is
// large enough: one copy of the entry array, no rehashing.
func (t *Sum64) CopyFrom(src *Sum64) {
	if cap(t.entries) < len(src.entries) {
		t.entries = make([]sumEntry, len(src.entries))
	}
	t.entries = t.entries[:len(src.entries)]
	copy(t.entries, src.entries)
	t.n, t.shift = src.n, src.shift
}

// ForEach visits every (key, value) pair in unspecified order. The
// callers' downstream steps (edge sorting, heap ordered by a total
// order) are insertion-order independent, matching the Go map iteration
// this replaces.
func (t *Sum64) ForEach(f func(key int64, val int64)) {
	for i := range t.entries {
		if t.entries[i].key != 0 {
			f(t.entries[i].key, t.entries[i].val)
		}
	}
}

func (t *Sum64) grow() {
	old := t.entries
	n := 2 * len(old)
	if n < minCapacity {
		n = minCapacity
	}
	t.entries = make([]sumEntry, n)
	t.shift = shiftFor(n)
	mask := n - 1
	for j := range old {
		if old[j].key == 0 {
			continue
		}
		i := hash(old[j].key, t.shift)
		for t.entries[i].key != 0 {
			i = (i + 1) & mask
		}
		t.entries[i] = old[j]
	}
}

// slabEntry is one Slab32 slot: key and slab offset share a cache line.
type slabEntry struct {
	key int64
	off int32
}

// Slab32 maps packed pair keys to fixed-stride slabs of uint32 counters,
// all living in one backing slice. It is the pair-histogram table of the
// affinity analysis: each pair owns 2*(wmax+1) counters indexed by
// coverage depth and direction, and the per-occurrence update (Inc) is a
// probe plus one counter increment. Stride is fixed at Init time; the
// zero value needs Init before use.
type Slab32 struct {
	entries []slabEntry
	slab    []uint32
	n       int
	shift   uint
	// stride is the per-key counter count.
	stride int
}

// Init clears the table and sets the per-key counter stride, keeping
// backing capacity for reuse.
func (t *Slab32) Init(stride int) {
	t.stride = stride
	t.slab = t.slab[:0]
	t.n = 0
	for i := range t.entries {
		t.entries[i] = slabEntry{}
	}
}

// Len returns the number of distinct keys.
func (t *Slab32) Len() int { return t.n }

// Stride returns the per-key counter count set by Init.
func (t *Slab32) Stride() int { return t.stride }

// findOrInsert returns the slab offset of the key's counter block,
// inserting a zeroed block if absent.
func (t *Slab32) findOrInsert(key int64) int32 {
	if t.n*maxLoadDen >= len(t.entries)*maxLoadNum {
		t.grow()
	}
	i := hash(key, t.shift)
	mask := len(t.entries) - 1
	for {
		e := &t.entries[i]
		if e.key == key {
			return e.off
		}
		if e.key == 0 {
			o := len(t.slab)
			t.slab = appendZeros(t.slab, t.stride)
			e.key = key
			e.off = int32(o)
			t.n++
			return int32(o)
		}
		i = (i + 1) & mask
	}
}

// Inc increments counter slot of the key's block, inserting a zeroed
// block if absent: the kernels' one-call accumulate. key must be
// non-zero; slot must be < stride.
func (t *Slab32) Inc(key int64, slot int) {
	t.slab[int(t.findOrInsert(key))+slot]++
}

// Counters returns the key's counter block, inserting a zeroed block if
// absent. The returned slice aliases the slab and is invalidated by the
// next insertion. key must be non-zero.
func (t *Slab32) Counters(key int64) []uint32 {
	o := int(t.findOrInsert(key))
	return t.slab[o : o+t.stride]
}

// Lookup returns the key's counter block or nil if absent, without
// inserting. key must be non-zero.
func (t *Slab32) Lookup(key int64) []uint32 {
	if t.n == 0 {
		return nil
	}
	i := hash(key, t.shift)
	mask := len(t.entries) - 1
	for {
		e := &t.entries[i]
		if e.key == key {
			o := int(e.off)
			return t.slab[o : o+t.stride]
		}
		if e.key == 0 {
			return nil
		}
		i = (i + 1) & mask
	}
}

// ForEach visits every (key, counter block) pair in unspecified order.
// The block aliases the slab; callers must not retain it across
// insertions.
func (t *Slab32) ForEach(f func(key int64, counts []uint32)) {
	for i := range t.entries {
		if t.entries[i].key != 0 {
			o := int(t.entries[i].off)
			f(t.entries[i].key, t.slab[o:o+t.stride])
		}
	}
}

// MergeFrom adds src's counters into t slab-to-slab: for every key in
// src, the counter blocks add elementwise. Addition commutes, so merging
// shards in any order yields identical tables. Strides must match.
func (t *Slab32) MergeFrom(src *Slab32) {
	for i := range src.entries {
		if src.entries[i].key == 0 {
			continue
		}
		so := int(src.entries[i].off)
		counts := src.slab[so : so+src.stride]
		do := int(t.findOrInsert(src.entries[i].key))
		dst := t.slab[do : do+t.stride]
		for d, c := range counts {
			dst[d] += c
		}
	}
}

func (t *Slab32) grow() {
	old := t.entries
	n := 2 * len(old)
	if n < minCapacity {
		n = minCapacity
	}
	t.entries = make([]slabEntry, n)
	t.shift = shiftFor(n)
	mask := n - 1
	for j := range old {
		if old[j].key == 0 {
			continue
		}
		i := hash(old[j].key, t.shift)
		for t.entries[i].key != 0 {
			i = (i + 1) & mask
		}
		t.entries[i] = old[j]
	}
}

// shiftFor returns the top-bits shift selecting log2(n) bits.
func shiftFor(n int) uint {
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	return 64 - bits
}

// appendZeros extends s by n zeroed elements. Reused slabs keep their
// capacity, so steady-state growth is a reslice, not an allocation.
func appendZeros(s []uint32, n int) []uint32 {
	if len(s)+n <= cap(s) {
		t := s[len(s) : len(s)+n]
		for i := range t {
			t[i] = 0
		}
		return s[:len(s)+n]
	}
	return append(s, make([]uint32, n)...)
}
