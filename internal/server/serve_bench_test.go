package server

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/navigation"
	"repro/internal/obs"
	"repro/internal/storage"
)

// discardWriter is an http.ResponseWriter that throws the response away
// without httptest.ResponseRecorder's bookkeeping, so serve benchmarks
// measure the serve path rather than the recorder.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// reset clears the headers between requests, reusing the map.
func (w *discardWriter) reset() {
	for k := range w.h {
		delete(w.h, k)
	}
}

// benchRequest builds a GET for path carrying the session cookie.
func benchRequest(path, cookie string) *http.Request {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if cookie != "" {
		req.AddCookie(&http.Cookie{Name: sessionCookie, Value: cookie})
	}
	return req
}

// benchSession performs one recorded request and returns the session
// cookie it was issued, so the timed loop reuses one visitor.
func benchSession(b *testing.B, srv *Server, path string) string {
	b.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup GET %s = %d", path, rec.Code)
	}
	for _, c := range rec.Result().Cookies() {
		if c.Name == sessionCookie {
			return c.Value
		}
	}
	b.Fatal("no session cookie issued")
	return ""
}

// BenchmarkServeHotCachePage is the hot serve path: the page is already
// woven and cached, the visitor known — per-request cost is validator
// and body writing plus the session step.
func BenchmarkServeHotCachePage(b *testing.B) {
	srv := New(benchApp(b))
	cookie := benchSession(b, srv, "/ByAuthor/picasso/guitar.html")
	req := benchRequest("/ByAuthor/picasso/guitar.html", cookie)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		srv.ServeHTTP(w, req)
	}
}

// BenchmarkServeHotCachePageTraced is the same hot path with tracing
// enabled and the request unsampled — the tracer's steady-state cost:
// a pooled slot, one atomic add for the sampling decision, clock reads
// per phase, no allocations (guarded by TestServeHotPathAllocsTraced).
func BenchmarkServeHotCachePageTraced(b *testing.B) {
	srv := New(benchApp(b), WithTracing(obs.NewTracer(obs.TraceConfig{
		SampleEvery: 0, SlowThreshold: time.Hour, RingSize: 64,
	})))
	cookie := benchSession(b, srv, "/ByAuthor/picasso/guitar.html")
	req := benchRequest("/ByAuthor/picasso/guitar.html", cookie)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		srv.ServeHTTP(w, req)
	}
}

// BenchmarkServeHotCachePageLimited is the same hot path with an
// ACTIVE in-flight bound: the delta against BenchmarkServeHotCachePage
// is the limiter's whole cost — two uncontended atomic adds, no
// allocations (guarded by TestLimiterActiveAddsNoAllocs).
func BenchmarkServeHotCachePageLimited(b *testing.B) {
	srv := New(benchApp(b), WithMaxInflight(1024))
	cookie := benchSession(b, srv, "/ByAuthor/picasso/guitar.html")
	req := benchRequest("/ByAuthor/picasso/guitar.html", cookie)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		srv.ServeHTTP(w, req)
	}
}

// BenchmarkServeHotCachePageParallel is the same hot path under
// concurrent visitors, each with their own session.
func BenchmarkServeHotCachePageParallel(b *testing.B) {
	srv := New(benchApp(b))
	const visitors = 64
	cookies := make([]string, visitors)
	for i := range cookies {
		cookies[i] = benchSession(b, srv, "/ByAuthor/picasso/guitar.html")
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cookie := cookies[next.Add(1)%visitors]
		req := benchRequest("/ByAuthor/picasso/guitar.html", cookie)
		w := &discardWriter{h: http.Header{}}
		for pb.Next() {
			w.reset()
			srv.ServeHTTP(w, req)
		}
	})
}

// BenchmarkServeLinksXML serves the linkbase document repeatedly — the
// document every XLink-aware agent fetches first.
func BenchmarkServeLinksXML(b *testing.B) {
	srv := New(benchApp(b))
	req := benchRequest("/links.xml", "")
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		srv.ServeHTTP(w, req)
	}
}

// BenchmarkServeDataDoc serves one node data document repeatedly.
func BenchmarkServeDataDoc(b *testing.B) {
	srv := New(benchApp(b))
	req := benchRequest("/data/guitar.xml", "")
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		srv.ServeHTTP(w, req)
	}
}

// BenchmarkServeAfterMutationOtherFamily mutates the ByAuthor access
// structure and then serves three ByMovement pages per iteration. A
// mutation to one context family should not cost the re-weave of
// another family's pages.
func BenchmarkServeAfterMutationOtherFamily(b *testing.B) {
	app := benchApp(b)
	srv := New(app)
	cookie := benchSession(b, srv, "/ByMovement/cubism/guitar.html")
	reqs := []*http.Request{
		benchRequest("/ByMovement/cubism/guitar.html", cookie),
		benchRequest("/ByMovement/cubism/avignon.html", cookie),
		benchRequest("/ByMovement/surrealism/memory.html", cookie),
	}
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The mutation itself is untimed: the benchmark measures what
		// serving costs right after it — re-weaves under wholesale
		// invalidation, cache hits under dependency-aware invalidation.
		b.StopTimer()
		var as navigation.AccessStructure = navigation.Index{}
		if i%2 == 0 {
			as = navigation.IndexedGuidedTour{}
		}
		if _, err := app.SetAccessStructures(map[string]navigation.AccessStructure{"ByAuthor": as}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, req := range reqs {
			w.reset()
			srv.ServeHTTP(w, req)
		}
	}
}

// benchStepWithPersistence measures one navigation step over HTTP with
// session persistence on: traversal, session move, durable save. The
// visitor is rotated periodically so the trail (and the marshalled
// record) stays bounded and the benchmark steady-state.
func benchStepWithPersistence(b *testing.B, opts ...Option) {
	st := storage.NewMem()
	defer st.Close()
	srv := New(benchApp(b), append([]Option{WithPersistence(st)}, opts...)...)
	defer srv.Close()
	cookie := benchSession(b, srv, "/ByAuthor/picasso/avignon.html")
	next := benchRequest("/go/next", cookie)
	prev := benchRequest("/go/prev", cookie)
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%512 == 511 {
			b.StopTimer()
			cookie = benchSession(b, srv, "/ByAuthor/picasso/avignon.html")
			next = benchRequest("/go/next", cookie)
			prev = benchRequest("/go/prev", cookie)
			b.StartTimer()
		}
		w.reset()
		if i%2 == 0 {
			srv.ServeHTTP(w, next)
		} else {
			srv.ServeHTTP(w, prev)
		}
	}
}

// BenchmarkStepWithPersistenceSync waits for the store write on every
// step: the request drains the persistence queue until its record is
// written (WithSyncPersistence).
func BenchmarkStepWithPersistenceSync(b *testing.B) {
	benchStepWithPersistence(b, WithSyncPersistence())
}

// BenchmarkStepWithPersistenceWriteBehind is the default write-behind
// path: the step marks the session dirty and the background flusher
// does the marshalling and writing off-request.
func BenchmarkStepWithPersistenceWriteBehind(b *testing.B) {
	benchStepWithPersistence(b)
}
