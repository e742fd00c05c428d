package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"
)

// chunkedDecode drains a decoder through NextChunk with the given
// buffer size, returning the symbols delivered before any error.
func chunkedDecode(d *Decoder, chunk int) ([]int32, error) {
	buf := make([]int32, chunk)
	var syms []int32
	for {
		n, err := d.NextChunk(buf)
		syms = append(syms, buf[:n]...)
		if err == io.EOF {
			return syms, nil
		}
		if err != nil {
			return syms, err
		}
	}
}

func encodeTrace(t testing.TB, syms []int32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := New(syms).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNextChunkMatchesDecode: every chunk size must deliver exactly the
// sequence Decode produces, including sizes that misalign with the
// trace length and sizes larger than the whole trace.
func TestNextChunkMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	syms := make([]int32, 1000)
	for i := range syms {
		// Mix small deltas with large jumps so varints span 1-5 bytes.
		if rng.Intn(10) == 0 {
			syms[i] = rng.Int31n(1 << 29)
		} else {
			syms[i] = rng.Int31n(64)
		}
	}
	data := encodeTrace(t, syms)
	for _, chunk := range []int{1, 2, 3, 7, 64, 999, 1000, 1001, 4096} {
		d, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got, err := chunkedDecode(d, chunk)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if !reflect.DeepEqual(got, syms) {
			t.Fatalf("chunk=%d: decoded sequence differs", chunk)
		}
		// After clean end-of-stream, further calls keep returning io.EOF.
		if n, err := d.NextChunk(make([]int32, 4)); n != 0 || err != io.EOF {
			t.Fatalf("chunk=%d: NextChunk past end = (%d, %v), want (0, io.EOF)", chunk, n, err)
		}
	}
}

// TestNextChunkVarintSplitAcrossReads forces every varint to arrive one
// underlying byte at a time: multi-byte deltas must reassemble across
// reader boundaries exactly as from a contiguous buffer.
func TestNextChunkVarintSplitAcrossReads(t *testing.T) {
	syms := []int32{0, 1 << 29, 3, 1<<30 - 1, 0, 1 << 20, 5}
	data := encodeTrace(t, syms)
	d, err := NewDecoder(iotest.OneByteReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := chunkedDecode(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, syms) {
		t.Fatalf("got %v, want %v", got, syms)
	}
}

// TestNextChunkMidRecordEOF: a container that dies mid-stream must hand
// back the occurrences decoded before the failure together with an
// offset-carrying error, and keep failing afterwards — never report a
// clean EOF.
func TestNextChunkMidRecordEOF(t *testing.T) {
	data := []byte("CLTR\x01\x05\x02\x02\x02") // declares 5, carries 3
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int32, 2)
	n, err := d.NextChunk(buf)
	if n != 2 || err != nil {
		t.Fatalf("first chunk = (%d, %v), want (2, nil)", n, err)
	}
	n, err = d.NextChunk(buf)
	if n != 1 {
		t.Fatalf("second chunk n = %d, want 1 (the last valid occurrence)", n)
	}
	if err == nil || err == io.EOF {
		t.Fatalf("second chunk err = %v, want a mid-record error", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte("offset")) {
		t.Errorf("error %q carries no offset", err)
	}
	// Next after the failure keeps reporting corruption, not clean EOF.
	if _, err := d.Next(); err == nil || err == io.EOF {
		t.Fatalf("Next after mid-record EOF = %v, want an error", err)
	}
}

// TestNextChunkStreamedDigest: chunked decoding through a HashingReader
// must yield the canonical content digest once the stream is drained —
// the property the server's streaming submit path depends on.
func TestNextChunkStreamedDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	syms := make([]int32, 5000)
	for i := range syms {
		syms[i] = rng.Int31n(500)
	}
	tr := New(syms)
	data := encodeTrace(t, syms)

	hr := NewHashingReader(bytes.NewReader(data))
	d, err := NewDecoder(hr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := chunkedDecode(d, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, syms) {
		t.Fatal("chunked decode through HashingReader changed the trace")
	}
	// Drain whatever trails the payload (nothing here, but the submit
	// path always drains before sealing the digest).
	if _, err := io.Copy(io.Discard, hr); err != nil {
		t.Fatal(err)
	}
	if hr.Sum() != tr.Digest() {
		t.Errorf("streamed digest %s != canonical digest %s", hr.Sum(), tr.Digest())
	}
}

// TestNextChunkZeroAllocSteadyState: once the decoder exists, draining
// it chunk by chunk into a reused buffer must not allocate.
func TestNextChunkZeroAllocSteadyState(t *testing.T) {
	syms := make([]int32, 1<<16)
	for i := range syms {
		syms[i] = int32(i % 257)
	}
	data := encodeTrace(t, syms)
	d, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int32, 1024)
	allocs := testing.AllocsPerRun(32, func() {
		if _, err := d.NextChunk(buf); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("NextChunk steady state allocates %.1f/op, want 0", allocs)
	}
}

// FuzzChunkedDecode: for arbitrary container bytes and chunk sizes,
// Decode and the chunked decoder must agree with the reference — Next,
// one occurrence at a time — on the accepted prefix, the accept/reject
// verdict and the error, also when the bytes arrive one read at a time
// and split every varint across buffer refills; and never panic.
func FuzzChunkedDecode(f *testing.F) {
	for _, syms := range [][]int32{
		{},
		{0},
		{5, 5, 4, 1000000, 0, 7},
		{1, 2, 3, 2, 1, 2, 3, 2},
	} {
		var buf bytes.Buffer
		if _, err := New(syms).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint16(3))
	}
	f.Add([]byte("CLTR\x01\x05\x02\x02\x02"), uint16(1))          // mid-record EOF
	f.Add([]byte("CLTR\x01\x02\x02\x80"), uint16(2))              // delta cut mid-continuation
	f.Add([]byte("CLTR\x01\x01\x01"), uint16(7))                  // negative symbol
	f.Add([]byte("CLTR\x01\x02\xfe\xff\xff\xff\x0f"), uint16(64)) // past symbol cap

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		ref, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		var want []int32
		wantErr := error(nil)
		for {
			s, err := ref.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, s)
		}
		decoders := map[string]func(*Decoder) ([]int32, error){
			"Decode": func(d *Decoder) ([]int32, error) {
				tr, err := d.Decode()
				if err != nil {
					return nil, err
				}
				return tr.Syms, nil
			},
			"chunked": func(d *Decoder) ([]int32, error) { return chunkedDecode(d, int(chunk)%1024+1) },
		}
		for name, decode := range decoders {
			for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
				d, err := NewDecoder(r)
				if err != nil {
					t.Fatalf("%s: NewDecoder verdict differs: %v", name, err)
				}
				got, gotErr := decode(d)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: verdicts differ: Next err %v, %s err %v", name, wantErr, name, gotErr)
				}
				if wantErr != nil {
					if wantErr.Error() != gotErr.Error() {
						t.Fatalf("%s: errors differ: Next %q, %s %q", name, wantErr, name, gotErr)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("%s disagrees with Next on an accepted container", name)
				}
			}
		}
	})
}

// BenchmarkStreamDecode decodes a 64k-occurrence container through the
// chunked streaming API. The per-op cost is one decoder (its bufio
// buffer) over a reused chunk buffer; the gate in scripts/bench_json.sh
// keeps the loop itself allocation-free.
func BenchmarkStreamDecode(b *testing.B) {
	syms := make([]int32, 1<<16)
	rng := rand.New(rand.NewSource(42))
	for i := range syms {
		syms[i] = rng.Int31n(2048)
	}
	data := encodeTrace(b, syms)
	buf := make([]int32, 4096)
	rd := bytes.NewReader(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		d, err := NewDecoder(rd)
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := d.NextChunk(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestDecodeExactCapacity: a container within the initial allocation cap
// decodes into a slice of exactly its declared length — retained traces
// hold no slack.
func TestDecodeExactCapacity(t *testing.T) {
	syms := make([]int32, 5000)
	for i := range syms {
		syms[i] = int32(i % 97)
	}
	d, err := NewDecoder(bytes.NewReader(encodeTrace(t, syms)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Syms, syms) || cap(tr.Syms) != len(syms) {
		t.Fatalf("decoded len %d cap %d, want %d and %d", len(tr.Syms), cap(tr.Syms), len(syms), len(syms))
	}
}
