// Package api defines the wire contract of the control plane: the JSON
// payloads `/api/v1/...` serves and accepts, shared by the server
// (internal/server) and the typed Go client (client). Version 1 is
// additive-only — fields may be added, never renamed or repurposed; a
// breaking change means /api/v2.
package api

import (
	"time"

	"repro/internal/analytics"
	"repro/internal/navigation"
)

// Version is the API version prefix the server mounts and the client
// speaks.
const Version = "v1"

// BasePath is the URL prefix of every control-plane endpoint.
const BasePath = "/api/" + Version

// Error is the structured error body every non-2xx control-plane
// response carries: {"error": {"status": 404, "message": "..."}}.
type Error struct {
	Status  int    `json:"status"`
	Message string `json:"message"`
	// TraceID is the request's W3C trace id when tracing is enabled, so
	// a failed call is joinable to its trace in /api/v1/traces without
	// parsing the Traceparent header.
	TraceID string `json:"trace_id,omitempty"`
}

// ErrorBody is the envelope an Error travels in.
type ErrorBody struct {
	Error Error `json:"error"`
}

// NodeClass is the wire form of one navigational node class.
type NodeClass struct {
	Name      string   `json:"name"`
	Class     string   `json:"class"`
	TitleAttr string   `json:"title_attr,omitempty"`
	Attrs     []string `json:"attrs,omitempty"`
}

// Link is the wire form of one navigational link view.
type Link struct {
	Name string `json:"name"`
	Rel  string `json:"rel"`
	From string `json:"from"`
	To   string `json:"to"`
}

// Family is the wire form of one context-family declaration, its access
// structure carried as a full spec.
type Family struct {
	Name      string                    `json:"name"`
	NodeClass string                    `json:"node_class"`
	GroupBy   string                    `json:"group_by,omitempty"`
	OrderBy   string                    `json:"order_by,omitempty"`
	Where     string                    `json:"where,omitempty"`
	Show      string                    `json:"show,omitempty"`
	Access    *navigation.StructureSpec `json:"access,omitempty"`
	// AccessText is the one-line declaration form of Access — the same
	// text SpecText renders, "" when the structure has no wire form.
	AccessText string `json:"access_text,omitempty"`
	// Contexts lists the family's resolved context instances.
	Contexts []string `json:"contexts,omitempty"`
}

// Model is the GET /api/v1/model payload: the whole navigational aspect
// as a wire artifact.
type Model struct {
	// SpecText is the declaration artifact navigation.SpecText renders
	// — byte-identical to what the E8 change-cost experiment diffs.
	SpecText        string      `json:"spec_text"`
	NodeClasses     []NodeClass `json:"node_classes"`
	Links           []Link      `json:"links,omitempty"`
	Families        []Family    `json:"families"`
	Landmarks       []string    `json:"landmarks,omitempty"`
	CacheGeneration uint64      `json:"cache_generation"`
}

// Context is one resolved context instance in the GET /api/v1/contexts
// listing.
type Context struct {
	Name    string `json:"name"`
	Family  string `json:"family"`
	Access  string `json:"access"`
	Entry   string `json:"entry"`
	Members int    `json:"members"`
	HasHub  bool   `json:"has_hub"`
	// MemberIDs lists the member node ids in context order. Additive
	// v1 field: absent from pre-navload servers, so consumers must
	// tolerate it missing.
	MemberIDs []string `json:"member_ids,omitempty"`
}

// Structure is the GET/PUT /api/v1/contexts/{family}/structure payload.
type Structure struct {
	Family string                    `json:"family"`
	Spec   *navigation.StructureSpec `json:"spec"`
	// Text is the one-line declaration form (AccessText).
	Text string `json:"text,omitempty"`
	// Contexts lists the resolved instances the structure serves.
	Contexts []string `json:"contexts,omitempty"`
}

// MutationResult reports what a write endpoint changed. The cache
// generation is the woven-page cache's value after the mutation — a
// rotated generation is what rotates the affected pages' ETags.
type MutationResult struct {
	// Family is set by structure swaps, Document by document patches.
	Family   string `json:"family,omitempty"`
	Document string `json:"document,omitempty"`
	// Contexts lists the resolved instances affected by the mutation.
	Contexts []string `json:"contexts,omitempty"`
	// DroppedPages is how many cached pages the mutation invalidated —
	// the pages_invalidated of the mutation's /api/v1/events record.
	DroppedPages    int    `json:"dropped_pages"`
	CacheGeneration uint64 `json:"cache_generation"`
}

// SnapshotResult reports a POST /api/v1/snapshot export.
type SnapshotResult struct {
	Store           string `json:"store"`
	Documents       int    `json:"documents"`
	CacheGeneration uint64 `json:"cache_generation"`
}

// AdaptResult reports a forced POST /api/v1/adapt derivation cycle.
type AdaptResult struct {
	DerivedStructures int    `json:"derived_structures"`
	AdaptGeneration   uint64 `json:"adapt_generation"`
	CacheGeneration   uint64 `json:"cache_generation"`
}

// GraphContext is one context's folded traffic in the analytics export.
type GraphContext struct {
	Hops    uint64                 `json:"hops"`
	Visits  map[string]uint64      `json:"visits,omitempty"`
	Entries map[string]uint64      `json:"entries,omitempty"`
	Edges   []analytics.Transition `json:"edges,omitempty"`
}

// Graph is the GET /api/v1/analytics/graph payload: the full transition
// graph the adaptation pipeline derives from, unlike /stats which
// truncates to top-k summaries.
type Graph struct {
	Analytics bool                    `json:"analytics"`
	Hops      uint64                  `json:"hops"`
	Contexts  map[string]GraphContext `json:"contexts,omitempty"`
}

// Event is one traced model mutation — the GET /api/v1/events record.
// It mirrors the server's internal mutation-trace ring on the wire:
// what changed the model, how long the rebuild took, and the
// invalidation blast radius the dependency diff decided on.
type Event struct {
	// Seq numbers mutations monotonically from process start; the
	// server retains a bounded ring of recent events but never
	// renumbers, so gaps reveal dropped history.
	Seq uint64 `json:"seq"`
	// Time is when the mutation completed (RFC 3339).
	Time time.Time `json:"time"`
	// Kind is the mutation entry point: "structure-swap", "document" or
	// "stylesheet".
	Kind string `json:"kind"`
	// Target names what was mutated: comma-joined family names for a
	// structure swap, the document URI for a patch.
	Target string `json:"target,omitempty"`
	// DurationSeconds is how long the mutation's rebuild took.
	DurationSeconds float64 `json:"duration_seconds"`
	// PagesInvalidated is how many cached pages the mutation dropped.
	PagesInvalidated int `json:"pages_invalidated"`
	// Verdict is the dependency diff's conclusion: "full", "local" or
	// "none".
	Verdict string `json:"verdict,omitempty"`
	// CacheGeneration is the woven-page cache generation after the
	// mutation.
	CacheGeneration uint64 `json:"cache_generation"`
}

// EventsResponse is the GET /api/v1/events payload.
type EventsResponse struct {
	// Total is how many mutations have been traced since process start,
	// including events the ring has since dropped.
	Total uint64 `json:"total"`
	// Events holds the retained trace, newest first.
	Events []Event `json:"events"`
}

// TraceSpan is one phase of a request's lifecycle inside a Trace:
// where in the request the phase began and how long it ran, both as
// nanosecond offsets so spans stay exact at cache-hit scale.
type TraceSpan struct {
	// Phase names the lifecycle step from the fixed vocabulary: "admit",
	// "session-lookup", "session-rehydrate", "cache-hit", "cache-join",
	// "cache-miss", "hop-record", "flush-enqueue", "storage-op",
	// "response-write" or "mutation".
	Phase string `json:"phase"`
	// StartNS is the span's start offset from the request's start.
	StartNS int64 `json:"start_ns"`
	// DurationNS is how long the phase ran.
	DurationNS int64 `json:"duration_ns"`
}

// Trace is one captured request lifecycle — the GET /api/v1/traces
// record: identity (W3C trace context), what was served, how long it
// took in total and phase by phase.
type Trace struct {
	// Seq numbers kept traces monotonically from process start; the ring
	// is bounded but never renumbers.
	Seq uint64 `json:"seq"`
	// Time is when the request finished (RFC 3339).
	Time time.Time `json:"time"`
	// TraceID and SpanID are the request's W3C trace context (32 and 16
	// hex digits); ParentSpanID is set when the caller sent a traceparent
	// header and this request joined its trace.
	TraceID      string `json:"trace_id"`
	SpanID       string `json:"span_id"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Route is the request's route class ("page", "doc", "traversal",
	// "session", "api", ...); Path is the concrete URL path.
	Route string `json:"route"`
	Path  string `json:"path"`
	// Status is the response status code.
	Status int `json:"status"`
	// DurationSeconds is the request's total wall time.
	DurationSeconds float64 `json:"duration_seconds"`
	// Slow marks a trace captured (or also qualifying) as slower than
	// the -trace-slow threshold; Sampled marks one kept by the 1-in-N
	// sampler. A trace can be both.
	Slow    bool `json:"slow"`
	Sampled bool `json:"sampled"`
	// TruncatedSpans counts phases dropped past the per-request span
	// capacity (0 in any normal request).
	TruncatedSpans int `json:"truncated_spans,omitempty"`
	// Spans holds the per-phase breakdown in recording order. Phases are
	// non-overlapping, so their durations sum to at most the total.
	Spans []TraceSpan `json:"spans"`
}

// TracesResponse is the GET /api/v1/traces payload.
type TracesResponse struct {
	// Enabled reports whether the server is tracing at all — false
	// distinguishes "tracing off" from "nothing captured yet".
	Enabled bool `json:"enabled"`
	// Total is how many traces have been kept since process start,
	// including ones the ring has since dropped.
	Total uint64 `json:"total"`
	// Traces holds the retained records, newest first.
	Traces []Trace `json:"traces"`
}
