package obs

import (
	"strings"
	"testing"
	"time"
)

// testTracer builds a tracer with deterministic-enough config for
// keep/recycle assertions.
func testTracer(sampleEvery int, slow time.Duration) *Tracer {
	return NewTracer(TraceConfig{SampleEvery: sampleEvery, SlowThreshold: slow, RingSize: 8})
}

// TestTraceSamplingDeterministic: SampleEvery=N keeps exactly one
// request in every N, by arrival order.
func TestTraceSamplingDeterministic(t *testing.T) {
	tr := testTracer(4, 0)
	kept := 0
	for i := 0; i < 40; i++ {
		rt := tr.Begin()
		rt.Span(PhaseAdmit, 0, time.Microsecond)
		tr.Finish(rt, "page", "/p.html", 200, time.Millisecond)
		if got := int(tr.Ring().Total()); got != kept && got != kept+1 {
			t.Fatalf("request %d: ring total %d, want %d or %d", i, got, kept, kept+1)
		}
		kept = int(tr.Ring().Total())
	}
	if kept != 10 {
		t.Errorf("kept %d of 40 with SampleEvery=4, want 10", kept)
	}
	for _, rec := range tr.Ring().Recent(0, nil) {
		if !rec.Sampled || rec.Slow {
			t.Errorf("record %+v: want sampled, not slow", rec)
		}
	}
}

// TestTraceSampleEveryOne keeps everything.
func TestTraceSampleEveryOne(t *testing.T) {
	tr := testTracer(1, 0)
	for i := 0; i < 5; i++ {
		tr.Finish(tr.Begin(), "doc", "/links.xml", 200, time.Microsecond)
	}
	if got := tr.Ring().Total(); got != 5 {
		t.Errorf("SampleEvery=1 kept %d of 5", got)
	}
}

// TestTraceSlowCapture: with sampling off, only requests at/above the
// threshold are kept, and they are marked Slow.
func TestTraceSlowCapture(t *testing.T) {
	tr := testTracer(0, 10*time.Millisecond)
	for i := 0; i < 20; i++ {
		tr.Finish(tr.Begin(), "page", "/fast.html", 200, time.Millisecond)
	}
	rt := tr.Begin()
	rt.Span(PhaseStorageOp, time.Millisecond, 14*time.Millisecond)
	tr.Finish(rt, "page", "/slow.html", 200, 15*time.Millisecond)
	if got := tr.Ring().Total(); got != 1 {
		t.Fatalf("kept %d traces, want only the slow one", got)
	}
	rec := tr.Ring().Recent(0, func(r TraceRecord) bool { return r.Slow })
	if len(rec) != 1 || !rec[0].Slow || rec[0].Sampled || rec[0].Path != "/slow.html" {
		t.Fatalf("slow capture = %+v", rec)
	}
	if len(rec[0].Spans) != 1 || rec[0].Spans[0].Phase != PhaseStorageOp ||
		rec[0].Spans[0].Dur != 13*time.Millisecond {
		t.Errorf("slow trace spans = %+v", rec[0].Spans)
	}
}

// TestTraceSpanOverflow: past the fixed slots, spans are dropped and
// counted, never allocated.
func TestTraceSpanOverflow(t *testing.T) {
	tr := testTracer(1, 0)
	rt := tr.Begin()
	for i := 0; i < maxSpans+3; i++ {
		rt.Span(PhaseAdmit, 0, time.Microsecond)
	}
	tr.Finish(rt, "page", "/p.html", 200, time.Millisecond)
	rec := tr.Ring().Recent(1, nil)
	if len(rec) != 1 || len(rec[0].Spans) != maxSpans || rec[0].Truncated != 3 {
		t.Errorf("overflow: %d spans, %d truncated", len(rec[0].Spans), rec[0].Truncated)
	}
}

// TestTraceIDsDistinct: consecutive requests get distinct, non-zero
// trace and span ids.
func TestTraceIDsDistinct(t *testing.T) {
	tr := testTracer(1, 0)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		rt := tr.Begin()
		id := rt.TraceID()
		if id == strings.Repeat("0", 32) {
			t.Fatal("all-zero trace id")
		}
		if seen[id] {
			t.Fatalf("trace id %s repeated", id)
		}
		seen[id] = true
		tr.Finish(rt, "page", "/p.html", 200, 0)
	}
}

// TestTraceparentRoundTrip: format then parse recovers the ids.
func TestTraceparentRoundTrip(t *testing.T) {
	var tid [16]byte
	var sid [8]byte
	for i := range tid {
		tid[i] = byte(i + 1)
	}
	for i := range sid {
		sid[i] = byte(0xa0 + i)
	}
	h := FormatTraceparent(tid, sid, true)
	if len(h) != traceparentLen || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("FormatTraceparent = %q", h)
	}
	gotTid, gotSid, ok := ParseTraceparent(h)
	if !ok || gotTid != tid || gotSid != sid {
		t.Fatalf("round trip failed: %q -> %x %x %v", h, gotTid, gotSid, ok)
	}
	if h2 := FormatTraceparent(tid, sid, false); !strings.HasSuffix(h2, "-00") {
		t.Errorf("unsampled flags = %q", h2)
	}
}

// TestParseTraceparentRejects: malformed headers, unknown versions and
// all-zero ids are invalid trace context.
func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	if _, _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("valid header %q rejected", valid)
	}
	for _, h := range []string{
		"",
		"00",
		valid + "0",      // too long
		valid[:54],       // too short
		"01" + valid[2:], // unknown version
		"00_0123456789abcdef0123456789abcdef-0123456789abcdef-01", // bad separator
		"00-0123456789abcdefg123456789abcdef-0123456789abcdef-01", // non-hex trace id
		"00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace id
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero parent id
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-zz", // non-hex flags
	} {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) = ok, want rejection", h)
		}
	}
}

// TestAdoptParent: a valid traceparent swaps the request onto the
// caller's trace; the outgoing header then carries the adopted id.
func TestAdoptParent(t *testing.T) {
	tr := testTracer(1, 0)
	rt := tr.Begin()
	own := rt.TraceID()
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if !rt.AdoptParent(in) {
		t.Fatal("valid traceparent not adopted")
	}
	if rt.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" || rt.TraceID() == own {
		t.Errorf("adopted trace id = %s", rt.TraceID())
	}
	if !rt.HasParent() {
		t.Error("HasParent = false after adoption")
	}
	if !strings.HasPrefix(rt.Traceparent(), "00-4bf92f3577b34da6a3ce929d0e0e4736-") {
		t.Errorf("outgoing traceparent = %q", rt.Traceparent())
	}
	tr.Finish(rt, "page", "/p.html", 200, 0)
	rec := tr.Ring().Recent(1, nil)
	if len(rec) != 1 || rec[0].ParentID != "00f067aa0ba902b7" {
		t.Errorf("kept parent id = %+v", rec)
	}
	if rt2 := tr.Begin(); rt2.HasParent() {
		t.Error("recycled slot kept its parent")
	}
}

// TestTraceUnsampledZeroAllocs is the acceptance-criterion guard: an
// unsampled, fast request's whole trace lifecycle — Begin, a serve
// path's worth of spans, Finish-and-recycle — allocates nothing.
func TestTraceUnsampledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	tr := testTracer(0, time.Hour)
	// Warm the pool so steady state is measured, not first touch.
	tr.Finish(tr.Begin(), "page", "/p.html", 200, time.Microsecond)
	if avg := testing.AllocsPerRun(1000, func() {
		rt := tr.Begin()
		rt.Span(PhaseAdmit, 0, 100)
		rt.Span(PhaseSessionLookup, 100, 300)
		rt.Span(PhaseCacheHit, 300, 700)
		rt.Span(PhaseHopRecord, 700, 800)
		rt.Span(PhaseFlushEnqueue, 800, 900)
		rt.Span(PhaseWrite, 900, 1200)
		tr.Finish(rt, "page", "/p.html", 200, 1300)
	}); avg != 0 {
		t.Errorf("unsampled trace lifecycle = %.2f allocs/op, want 0", avg)
	}
}

// TestPhaseNames: every phase has a distinct fixed name and the
// out-of-range guard holds.
func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < numPhases; p++ {
		name := p.Name()
		if name == "" || seen[name] {
			t.Errorf("phase %d name %q (empty or duplicate)", p, name)
		}
		seen[name] = true
	}
	if numPhases.Name() != "" {
		t.Errorf("out-of-range phase name = %q", numPhases.Name())
	}
}

// BenchmarkTraceUnsampled is the steady-state cost tracing adds per
// request when the trace is recycled (the overwhelmingly common case).
func BenchmarkTraceUnsampled(b *testing.B) {
	tr := testTracer(0, time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt := tr.Begin()
		rt.Span(PhaseAdmit, 0, 100)
		rt.Span(PhaseCacheHit, 100, 700)
		rt.Span(PhaseWrite, 700, 1000)
		tr.Finish(rt, "page", "/p.html", 200, 1100)
	}
}

// BenchmarkTraceKept is the keep-path cost: record copy, hex ids, ring
// insert.
func BenchmarkTraceKept(b *testing.B) {
	tr := testTracer(1, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt := tr.Begin()
		rt.Span(PhaseAdmit, 0, 100)
		rt.Span(PhaseCacheHit, 100, 700)
		rt.Span(PhaseWrite, 700, 1000)
		tr.Finish(rt, "page", "/p.html", 200, 1100)
	}
}
