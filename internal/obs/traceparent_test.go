package obs

import (
	"strings"
	"testing"
)

const (
	tpTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	tpSpan  = "00f067aa0ba902b7"
)

func TestParseTraceparent(t *testing.T) {
	cases := []struct {
		in      string
		ok      bool
		trace   string
		span    string
		sampled bool
	}{
		{"00-" + tpTrace + "-" + tpSpan + "-01", true, tpTrace, tpSpan, true},
		{"00-" + tpTrace + "-" + tpSpan + "-00", true, tpTrace, tpSpan, false},
		// Future version with trailing fields.
		{"cc-" + tpTrace + "-" + tpSpan + "-01-extra", true, tpTrace, tpSpan, true},
		// Flags other than 01 parse; only bit 0 is sampled.
		{"00-" + tpTrace + "-" + tpSpan + "-03", true, tpTrace, tpSpan, true},
		{"00-" + tpTrace + "-" + tpSpan + "-02", true, tpTrace, tpSpan, false},

		{"", false, "", "", false},
		{"00-" + tpTrace + "-" + tpSpan, false, "", "", false},                          // no flags
		{"00-" + tpTrace + "-" + tpSpan + "-0", false, "", "", false},                   // short flags
		{"00-" + tpTrace + "-" + tpSpan + "-0g", false, "", "", false},                  // bad flags hex
		{"ff-" + tpTrace + "-" + tpSpan + "-01", false, "", "", false},                  // forbidden version
		{"0g-" + tpTrace + "-" + tpSpan + "-01", false, "", "", false},                  // bad version hex
		{"00-" + strings.Repeat("0", 32) + "-" + tpSpan + "-01", false, "", "", false},  // zero trace
		{"00-" + tpTrace + "-" + strings.Repeat("0", 16) + "-01", false, "", "", false}, // zero span
		{"00-" + strings.ToUpper(tpTrace) + "-" + tpSpan + "-01", false, "", "", false}, // uppercase
		{"00-" + tpTrace[:31] + "g-" + tpSpan + "-01", false, "", "", false},            // bad trace hex
		{"00-" + tpTrace + "-" + tpSpan[:15] + "g-01", false, "", "", false},            // bad span hex
		{"00-" + tpTrace + "-" + tpSpan + "-01-extra", false, "", "", false},            // v00 must be exact
		{"cc-" + tpTrace + "-" + tpSpan + "-01x", false, "", "", false},                 // junk, not a separator
		{"00_" + tpTrace + "_" + tpSpan + "_01", false, "", "", false},                  // wrong separators
		{"00-" + tpTrace[:20] + "-" + tpSpan + "-01", false, "", "", false},             // odd trace width
		{"00-" + tpSpan + "-" + tpSpan + "-01", false, "", "", false},                   // 16-hex trace id
	}
	for _, c := range cases {
		tp, ok := ParseTraceparent(c.in)
		if ok != c.ok {
			t.Errorf("ParseTraceparent(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if tp.TraceID != c.trace || tp.SpanID != c.span || tp.Sampled != c.sampled {
			t.Errorf("ParseTraceparent(%q) = %+v, want (%s, %s, %v)", c.in, tp, c.trace, c.span, c.sampled)
		}
	}
}

func TestFormatTraceparent(t *testing.T) {
	got := FormatTraceparent(tpTrace, tpSpan, true)
	want := "00-" + tpTrace + "-" + tpSpan + "-01"
	if got != want {
		t.Fatalf("FormatTraceparent = %q, want %q", got, want)
	}
	if got := FormatTraceparent(tpTrace, tpSpan, false); !strings.HasSuffix(got, "-00") {
		t.Fatalf("unsampled header = %q, want -00 suffix", got)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	for i := 0; i < 32; i++ {
		trace, span := NewTraceID(), NewSpanID()
		h := FormatTraceparent(trace, span, true)
		tp, ok := ParseTraceparent(h)
		if !ok || tp.TraceID != trace || tp.SpanID != span || !tp.Sampled {
			t.Fatalf("round trip %q -> %+v ok=%v", h, tp, ok)
		}
	}
}

func TestValidTraceID(t *testing.T) {
	cases := []struct {
		in string
		ok bool
	}{
		{tpTrace, true},
		{tpSpan, false}, // 16 hex: the span width, not a trace ID
		{"", false},
		{strings.Repeat("0", 32), false},
		{strings.Repeat("0", 16), false},
		{strings.ToUpper(tpTrace), false},
		{tpTrace[:20], false},
		{tpTrace + "ab", false},
		{strings.Repeat("g", 32), false},
	}
	for _, c := range cases {
		if got := ValidTraceID(c.in); got != c.ok {
			t.Errorf("ValidTraceID(%q) = %v, want %v", c.in, got, c.ok)
		}
	}
}

// The parse and format paths run on every inbound request and every
// outbound peer hop: they must not allocate.
func TestTraceparentZeroAlloc(t *testing.T) {
	h := "00-" + tpTrace + "-" + tpSpan + "-01"
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := ParseTraceparent(h); !ok {
			t.Fatal("parse failed")
		}
	}); n != 0 {
		t.Fatalf("ParseTraceparent allocates %v per op, want 0", n)
	}
	buf := make([]byte, 0, MaxTraceparentLen)
	if n := testing.AllocsPerRun(1000, func() {
		buf = AppendTraceparent(buf[:0], tpTrace, tpSpan, true)
	}); n != 0 {
		t.Fatalf("AppendTraceparent allocates %v per op, want 0", n)
	}
}

func BenchmarkTraceparentParse(b *testing.B) {
	h := "00-" + tpTrace + "-" + tpSpan + "-01"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := ParseTraceparent(h); !ok {
			b.Fatal("parse failed")
		}
	}
}

func BenchmarkTraceparentFormat(b *testing.B) {
	buf := make([]byte, 0, MaxTraceparentLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendTraceparent(buf[:0], tpTrace, tpSpan, true)
	}
}
