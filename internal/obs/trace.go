// Request-lifecycle tracing: the single-request counterpart of the
// metrics core. Metrics aggregate what the serving stack does;
// a trace explains one request — which phases it passed through and
// what each cost — so a latency outlier is attributable instead of a
// mystery bucket in a histogram.
//
// The design carries the same hot-path contract as the counters: a
// request records into a pooled, fixed-size span slot (no per-request
// allocation), phases come from a fixed vocabulary (no label
// rendering), and the clock is read by the caller — the annotated
// record path only stores offsets. Whether a trace is *kept* is
// decided at Finish: deterministic 1-in-N sampling explains the
// steady state cheaply, and an unconditional slow-request threshold
// guarantees latency outliers are always explained. Kept traces land
// in a bounded Ring; everything else is recycled
// untouched, which is what makes the idle path zero-alloc.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names one step of the request lifecycle. The vocabulary is
// fixed so the record path never formats: a span is a phase index and
// two duration offsets.
type Phase uint8

const (
	// PhaseAdmit is the in-flight limiter's admission check.
	PhaseAdmit Phase = iota
	// PhaseSessionLookup is the in-memory session-store lookup.
	PhaseSessionLookup
	// PhaseSessionRehydrate restores a session from the durable store
	// (its store read included).
	PhaseSessionRehydrate
	// PhaseCacheHit is a page served straight from the woven-page cache.
	PhaseCacheHit
	// PhaseCacheJoin is a render coalesced onto another request's
	// in-flight weave (single-flight join).
	PhaseCacheJoin
	// PhaseCacheMiss is a cold render: this request led the weave and
	// cached the result.
	PhaseCacheMiss
	// PhaseHopRecord is the analytics recorder counting the navigation
	// hop.
	PhaseHopRecord
	// PhaseFlushEnqueue marks the session dirty in the write-behind
	// queue.
	PhaseFlushEnqueue
	// PhaseStorageOp is a synchronous storage operation on the request
	// path (a per-step session write, a snapshot export).
	PhaseStorageOp
	// PhaseWrite is the response write: validator check, headers, body.
	PhaseWrite
	// PhaseMutation is a control-plane mutation's validate-and-rebuild.
	PhaseMutation
	numPhases
)

var phaseNames = [numPhases]string{
	"admit", "session-lookup", "session-rehydrate",
	"cache-hit", "cache-join", "cache-miss",
	"hop-record", "flush-enqueue", "storage-op",
	"response-write", "mutation",
}

// Name returns the phase's fixed wire name ("" for an out-of-range
// value, which would be a bug in the recorder).
func (p Phase) Name() string {
	if int(p) >= len(phaseNames) {
		return ""
	}
	return phaseNames[p]
}

// Span is one recorded phase: where in the request it began and how
// long it took, both as offsets from the request's start. Spans do not
// nest — the instrumentation records leaf phases only — so a trace's
// span durations sum to at most the request's total.
type Span struct {
	Phase Phase         `json:"phase"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"duration_ns"`
}

// maxSpans bounds one request's span slots. The serve path records
// well under this; a request that somehow exceeds it drops the excess
// and counts them in Truncated rather than allocating.
const maxSpans = 16

// ReqTrace is one request's span slot, drawn from the tracer's pool at
// Begin and returned at Finish. All fields are written by one request
// goroutine; no internal locking.
type ReqTrace struct {
	traceID   [16]byte
	spanID    [8]byte
	parentID  [8]byte
	hasParent bool
	sampled   bool
	n         int
	truncated int
	spans     [maxSpans]Span
}

// Span records one completed phase. from and to are offsets from the
// request's start, measured by the (unannotated) caller — the record
// path itself never reads the clock.
//
//repro:hotpath
func (t *ReqTrace) Span(p Phase, from, to time.Duration) {
	if t.n >= maxSpans {
		t.truncated++
		return
	}
	t.spans[t.n] = Span{Phase: p, Start: from, Dur: to - from}
	t.n++
}

// Sampled reports whether the deterministic 1-in-N sampler chose this
// request at Begin (slow capture can still keep an unsampled trace).
func (t *ReqTrace) Sampled() bool { return t.sampled }

// HasParent reports whether AdoptParent installed an upstream trace
// context.
func (t *ReqTrace) HasParent() bool { return t.hasParent }

// AdoptParent installs the trace context from an incoming W3C
// traceparent header: the request joins the caller's trace (same
// trace-id, caller's span-id as parent) instead of starting its own.
// A malformed header is ignored and reported false.
func (t *ReqTrace) AdoptParent(header string) bool {
	traceID, parentID, ok := ParseTraceparent(header)
	if !ok {
		return false
	}
	t.traceID = traceID
	t.parentID = parentID
	t.hasParent = true
	return true
}

// Traceparent renders this request's outgoing W3C traceparent header
// value. It allocates — callers on the hot serve path only render it
// when the trace is sampled or propagated, never for the idle case.
func (t *ReqTrace) Traceparent() string {
	return FormatTraceparent(t.traceID, t.spanID, t.sampled)
}

// TraceID returns the trace id as 32 hex digits (allocates; keep-path
// and error-path use only).
func (t *ReqTrace) TraceID() string { return hex.EncodeToString(t.traceID[:]) }

// TraceRecord is one kept trace: the request's identity, outcome and
// phase breakdown, as stored in the ring.
type TraceRecord struct {
	// Seq numbers kept traces monotonically from process start; the
	// ring drops old traces but never renumbers.
	Seq uint64 `json:"seq"`
	// Time is when the request finished.
	Time time.Time `json:"time"`
	// TraceID, SpanID and ParentID are the W3C trace context, hex
	// encoded. ParentID is "" unless the request carried a traceparent.
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_span_id,omitempty"`
	// Route is the server's route class; Path the concrete request path.
	Route  string `json:"route"`
	Path   string `json:"path"`
	Status int    `json:"status"`
	// Duration is the request's total wall time.
	Duration time.Duration `json:"duration_ns"`
	// Slow marks a trace kept by the slow-request threshold; Sampled one
	// chosen by the 1-in-N sampler (both can be true).
	Slow    bool `json:"slow"`
	Sampled bool `json:"sampled"`
	// Truncated counts spans dropped past the fixed slot capacity.
	Truncated int `json:"truncated_spans,omitempty"`
	// Spans is the phase breakdown in record order.
	Spans []Span `json:"spans"`
}

// withSeq returns the record stamped with its Ring sequence number.
func (t TraceRecord) withSeq(seq uint64) TraceRecord {
	t.Seq = seq
	return t
}

// TraceConfig configures a Tracer.
type TraceConfig struct {
	// SampleEvery keeps one request trace in every N (1 keeps every
	// request; 0 or negative disables sampling, leaving slow capture
	// only).
	SampleEvery int
	// SlowThreshold unconditionally keeps any request at least this
	// slow, sampled or not (0 disables slow capture).
	SlowThreshold time.Duration
	// RingSize is the kept-trace ring capacity (default
	// DefaultTraceRing when <= 0).
	RingSize int
}

// DefaultTraceRing is the default kept-trace ring capacity.
const DefaultTraceRing = 256

// Tracer hands out per-request span slots and decides, at Finish,
// which traces are kept. Safe for concurrent use.
type Tracer struct {
	sampleEvery uint64
	slow        time.Duration
	ring        *Ring[TraceRecord]

	// seq drives the deterministic 1-in-N sampling decision; idSeq and
	// idSeed drive trace/span id generation (splitmix64 over a
	// crypto-seeded base — unguessable start, no per-request entropy
	// read).
	seq    atomic.Uint64
	idSeq  atomic.Uint64
	idSeed uint64

	pool sync.Pool
}

// NewTracer returns a tracer with the given sampling, slow-capture and
// retention configuration.
func NewTracer(cfg TraceConfig) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultTraceRing
	}
	tr := &Tracer{
		slow: cfg.SlowThreshold,
		ring: NewRing[TraceRecord](cfg.RingSize),
	}
	if cfg.SampleEvery > 0 {
		tr.sampleEvery = uint64(cfg.SampleEvery)
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		tr.idSeed = binary.LittleEndian.Uint64(seed[:])
	} else {
		// Entropy failure leaves ids predictable, not absent — tracing
		// is diagnostics, not security.
		tr.idSeed = uint64(time.Now().UnixNano())
	}
	tr.pool.New = func() any { return new(ReqTrace) }
	return tr
}

// Ring exposes the kept-trace ring (the /api/v1/traces backing store).
func (tr *Tracer) Ring() *Ring[TraceRecord] { return tr.ring }

// SlowThreshold reports the configured slow-capture threshold.
func (tr *Tracer) SlowThreshold() time.Duration { return tr.slow }

// splitmix64 is the id generator's mixing function: a full-period
// permutation of the 64-bit counter, so ids never repeat within a
// process and share no visible structure.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Begin draws a span slot from the pool, assigns fresh trace and span
// ids, and takes the deterministic sampling decision. The caller pairs
// every Begin with exactly one Finish.
//
//repro:hotpath
func (tr *Tracer) Begin() *ReqTrace {
	t := tr.pool.Get().(*ReqTrace)
	t.n = 0
	t.truncated = 0
	t.hasParent = false
	t.sampled = tr.sampleEvery == 1 ||
		(tr.sampleEvery > 1 && tr.seq.Add(1)%tr.sampleEvery == 0)
	id := tr.idSeq.Add(1)
	hi := splitmix64(tr.idSeed + 2*id)
	lo := splitmix64(tr.idSeed + 2*id + 1)
	binary.BigEndian.PutUint64(t.traceID[:8], hi)
	binary.BigEndian.PutUint64(t.traceID[8:], lo)
	binary.BigEndian.PutUint64(t.spanID[:], splitmix64(hi^lo))
	// An all-zero id is invalid trace context; splitmix64 can
	// technically produce it, so pin one bit rather than loop.
	t.traceID[15] |= 1
	t.spanID[7] |= 1
	return t
}

// Finish ends the request's trace: kept into the ring when sampled or
// at/above the slow threshold, recycled otherwise. Recycling is the
// common case and touches nothing but the pool — zero allocations.
//
//repro:hotpath
func (tr *Tracer) Finish(t *ReqTrace, route, path string, status int, total time.Duration) {
	if t == nil {
		return
	}
	if t.sampled || (tr.slow > 0 && total >= tr.slow) {
		//repro:allow(kept trace: the sampled-or-slow tail, off the idle serve path)
		tr.keep(t, route, path, status, total)
	}
	tr.pool.Put(t)
}

// keep copies the slot into a durable TraceRecord and rings it. Runs
// only for the sampled-or-slow tail, so allocating and reading the
// clock here is fine.
func (tr *Tracer) keep(t *ReqTrace, route, path string, status int, total time.Duration) {
	rec := TraceRecord{
		Time:      time.Now(),
		TraceID:   hex.EncodeToString(t.traceID[:]),
		SpanID:    hex.EncodeToString(t.spanID[:]),
		Route:     route,
		Path:      path,
		Status:    status,
		Duration:  total,
		Slow:      tr.slow > 0 && total >= tr.slow,
		Sampled:   t.sampled,
		Truncated: t.truncated,
		Spans:     make([]Span, t.n),
	}
	if t.hasParent {
		rec.ParentID = hex.EncodeToString(t.parentID[:])
	}
	copy(rec.Spans, t.spans[:t.n])
	tr.ring.Record(rec)
}

// traceparentLen is the W3C version-00 header length:
// "00-" + 32 hex + "-" + 16 hex + "-" + 2 hex.
const traceparentLen = 55

const hexDigits = "0123456789abcdef"

// FormatTraceparent renders a W3C traceparent header value (version
// 00), with the sampled flag set accordingly.
func FormatTraceparent(traceID [16]byte, spanID [8]byte, sampled bool) string {
	var b [traceparentLen]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], traceID[:])
	b[35] = '-'
	hex.Encode(b[36:52], spanID[:])
	b[52], b[53] = '-', '0'
	b[54] = '0'
	if sampled {
		b[54] = '1'
	}
	return string(b[:])
}

// ParseTraceparent parses a W3C traceparent header (version 00):
// "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>". It reports
// ok=false for malformed headers, unknown versions and the all-zero
// ids the spec declares invalid.
func ParseTraceparent(h string) (traceID [16]byte, parentID [8]byte, ok bool) {
	if len(h) != traceparentLen || h[0] != '0' || h[1] != '0' ||
		h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return traceID, parentID, false
	}
	if _, err := hex.Decode(traceID[:], []byte(h[3:35])); err != nil {
		return traceID, parentID, false
	}
	if _, err := hex.Decode(parentID[:], []byte(h[36:52])); err != nil {
		return traceID, parentID, false
	}
	if !isHexByte(h[53]) || !isHexByte(h[54]) {
		return traceID, parentID, false
	}
	if traceID == ([16]byte{}) || parentID == ([8]byte{}) {
		return traceID, parentID, false
	}
	return traceID, parentID, true
}

func isHexByte(c byte) bool {
	return ('0' <= c && c <= '9') || ('a' <= c && c <= 'f')
}
