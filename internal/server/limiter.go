// Overload protection: a bounded in-flight request limiter. Every
// request is classed (serving routes vs. the control plane) and
// admitted only while the class's in-flight count is under its bound;
// past it the request is shed immediately — 503 with Retry-After —
// before any session, cache or store work happens, so an overloaded
// server degrades by refusing cheaply instead of queueing expensively.
// Operational probes (/healthz, /readyz, /metrics, /stats) are never
// shed: a load balancer must be able to see an overloaded server.

package server

import (
	"net/http"
	"sync/atomic"
)

// limitClass groups route classes for in-flight limiting: one bound
// for the serving surface, one for the control plane, and an exempt
// class for operational probes.
type limitClass uint8

const (
	// limitServe covers the visitor-facing surface: pages, documents,
	// traversals, sessions, the site map and arcs.
	limitServe limitClass = iota
	// limitAPI covers the /api/v1 control plane.
	limitAPI
	// limitOps covers operational probes, never shed.
	limitOps
	numLimitClasses
)

// limitClassOf maps every route class onto its limiter class.
var limitClassOf = [numRoutes]limitClass{
	routeSiteMap:   limitServe,
	routePage:      limitServe,
	routeDoc:       limitServe,
	routeTraversal: limitServe,
	routeSession:   limitServe,
	routeHealth:    limitOps,
	routeReady:     limitOps,
	routeStats:     limitOps,
	routeMetrics:   limitOps,
	routeArcs:      limitServe,
	routeAPI:       limitAPI,
	routeOther:     limitServe,
}

// inflightSlot is one class's in-flight counter, padded to a cache
// line so the serve and API classes never false-share under load.
type inflightSlot struct {
	n atomic.Int64
	_ [56]byte
}

// inflightLimiter bounds concurrent requests per limit class. A zero
// (or negative) limit disables the bound for the class — the default —
// and costs one predictable branch on the request path; an active
// bound costs two uncontended-case atomic adds. Nothing here
// allocates: the hot-serve allocation guard covers the admitted path.
type inflightLimiter struct {
	limits   [numLimitClasses]int64
	inflight [numLimitClasses]inflightSlot
}

// acquire admits the request, or returns false when the class is
// saturated — the caller sheds without doing any work. Every true
// return must be paired with release.
func (l *inflightLimiter) acquire(c limitClass) bool {
	max := l.limits[c]
	if max <= 0 {
		return true
	}
	if l.inflight[c].n.Add(1) > max {
		l.inflight[c].n.Add(-1)
		return false
	}
	return true
}

// release returns the request's slot.
func (l *inflightLimiter) release(c limitClass) {
	if l.limits[c] > 0 {
		l.inflight[c].n.Add(-1)
	}
}

// WithMaxInflight bounds concurrently served visitor-facing requests
// (pages, documents, traversals, sessions); past the bound requests
// are shed with 503 + Retry-After before any work is done. Zero (the
// default) disables the bound. Operational probes are never shed.
func WithMaxInflight(n int) Option {
	return func(s *Server) { s.limits.limits[limitServe] = int64(n) }
}

// WithMaxInflightAPI bounds concurrent /api/v1 control-plane requests
// the same way. Zero (the default) disables the bound.
func WithMaxInflightAPI(n int) Option {
	return func(s *Server) { s.limits.limits[limitAPI] = int64(n) }
}

// shed answers a request refused by the limiter: 503 with a
// Retry-After hint, written before any session or cache work happened.
// The body is plain text — a shed response must stay as cheap as the
// refusal itself — but it does carry the trace context when tracing is
// on, so a Retry-After burst is joinable to its traces.
func shed(w http.ResponseWriter, traceparent string) {
	if traceparent != "" {
		w.Header().Set("Traceparent", traceparent)
	}
	unavailable(w, "overloaded: in-flight request limit reached")
}

// unavailable answers 503 with a one-second Retry-After and a plain-text
// reason: the shape of every "try again shortly" refusal (a shed request,
// a synchronous session write the store rejected).
func unavailable(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Cache-Control", "no-store")
	http.Error(w, reason, http.StatusServiceUnavailable)
}
