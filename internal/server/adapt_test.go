package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
)

// analyticsServer builds a paper-museum server with a trail recorder
// and a permissive derivation config (tiny sample floors, so tests can
// adapt after a handful of simulated visitors).
func analyticsServer(t testing.TB, opts ...Option) (*Server, *analytics.Recorder) {
	t.Helper()
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	rec := analytics.NewRecorder(analytics.RecorderConfig{})
	opts = append([]Option{
		WithAnalytics(rec),
		WithDeriveConfig(analytics.Config{MinHops: 5, LandmarkShare: 0.4}),
	}, opts...)
	return New(app, opts...), rec
}

// visit performs one page GET as the given visitor, returning the
// session cookie (issued on first contact) and the response.
func visit(t *testing.T, srv *Server, path, cookie string) (string, *recorder) {
	t.Helper()
	rec := newRecorder()
	srv.ServeHTTP(rec, newRequest(path, cookie))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	if c := rec.cookie(); c != "" {
		cookie = c
	}
	return cookie, rec
}

// simulateDominantTraffic walks visitors through ByAuthor:picasso along
// guernica -> avignon -> guitar — deliberately not the authored year
// order (avignon, guitar, guernica).
func simulateDominantTraffic(t *testing.T, srv *Server, visitors int) {
	t.Helper()
	for v := 0; v < visitors; v++ {
		cookie := ""
		for _, page := range []string{
			"/ByAuthor/picasso/guernica.html",
			"/ByAuthor/picasso/avignon.html",
			"/ByAuthor/picasso/guitar.html",
		} {
			cookie, _ = visit(t, srv, page, cookie)
		}
	}
}

// TestAdaptiveEndToEnd is the acceptance scenario: simulated traffic
// produces a derived "popular next" structure whose top edge matches
// the dominant path, served live after an adapt cycle with correct
// ETag rotation — and only the adapted family's validators move.
func TestAdaptiveEndToEnd(t *testing.T) {
	srv, rec := analyticsServer(t)

	simulateDominantTraffic(t, srv, 10)
	if st := rec.Stats(); st.Recorded == 0 {
		t.Fatalf("recorder stats = %+v, want traffic", st)
	}

	// Validators before adaptation.
	_, before := visit(t, srv, "/ByAuthor/picasso/guernica.html", "")
	beforeTag := before.Header().Get("ETag")
	_, otherBefore := visit(t, srv, "/ByMovement/cubism/guitar.html", "")
	otherTag := otherBefore.Header().Get("ETag")

	plans, err := srv.Adapt()
	if err != nil {
		t.Fatal(err)
	}
	if plans == 0 {
		t.Fatal("adapt derived no structures")
	}
	if gen, derived := srv.AdaptStats(); gen != 1 || derived == 0 {
		t.Errorf("adapt stats = gen %d derived %d", gen, derived)
	}

	// The derived structure's order follows the dominant simulated
	// path, not the authored year order.
	tour, ok := srv.app.Resolved().Context("ByAuthor:picasso").Def.Access.(*navigation.AdaptiveTour)
	if !ok {
		t.Fatalf("access structure = %T, want *AdaptiveTour", srv.app.Resolved().Context("ByAuthor:picasso").Def.Access)
	}
	order := tour.Plans["ByAuthor:picasso"].Order
	if len(order) < 3 || order[0] != "guernica" || order[1] != "avignon" || order[2] != "guitar" {
		t.Fatalf("derived order = %v, want dominant path guernica avignon guitar", order)
	}

	// Served live, with a rotated validator: the old tag no longer
	// revalidates and the new page carries the learned Next edge.
	req := newRequest("/ByAuthor/picasso/guernica.html", "")
	req.Header.Set("If-None-Match", beforeTag)
	after := newRecorder()
	srv.ServeHTTP(after, req)
	if after.Code != http.StatusOK {
		t.Fatalf("post-adapt conditional GET = %d, want 200 (structure changed)", after.Code)
	}
	if tag := after.Header().Get("ETag"); tag == beforeTag {
		t.Errorf("ETag did not rotate across the adaptation: %q", tag)
	}
	body := after.Body.String()
	if !strings.Contains(body, `class="nav-next"`) || !strings.Contains(body, "/ByAuthor/picasso/avignon.html") {
		t.Errorf("adapted page lacks the learned next edge:\n%s", body)
	}

	// The un-adapted family keeps revalidating with its old tag.
	otherReq := newRequest("/ByMovement/cubism/guitar.html", "")
	otherReq.Header.Set("If-None-Match", otherTag)
	otherAfter := newRecorder()
	srv.ServeHTTP(otherAfter, otherReq)
	if otherAfter.Code != http.StatusNotModified {
		t.Errorf("ByMovement conditional GET after ByAuthor adapt = %d, want 304", otherAfter.Code)
	}

	// A second cycle over the same traffic derives the same tours and
	// must not rotate validators again (the no-op swap is skipped).
	tagStable := after.Header().Get("ETag")
	if _, err := srv.Adapt(); err != nil {
		t.Fatal(err)
	}
	_, again := visit(t, srv, "/ByAuthor/picasso/guernica.html", "")
	if got := again.Header().Get("ETag"); got != tagStable {
		t.Errorf("steady-state adapt rotated ETag %q -> %q", tagStable, got)
	}

	// An operator reverting the family by hand is not silently
	// ignored: the next cycle re-derives and re-installs the tour (the
	// steady-state skip compares against the live structure).
	if _, err := srv.app.SetAccessStructures(map[string]navigation.AccessStructure{"ByAuthor": navigation.IndexedGuidedTour{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Adapt(); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.app.Resolved().Context("ByAuthor:picasso").Def.Access.(*navigation.AdaptiveTour); !ok {
		t.Error("adapt cycle after an operator revert left the authored structure in place")
	}
}

// TestTraversalFollowsAdaptedModel: a session created before an adapt
// cycle is rebased onto the new model, so /go/next answers per the
// same derived edges the freshly woven pages display — not the
// pre-adapt chain.
func TestTraversalFollowsAdaptedModel(t *testing.T) {
	srv, _ := analyticsServer(t)
	simulateDominantTraffic(t, srv, 10)

	// This visitor's session predates the adaptation. Authored order
	// (by year) says Next(guernica) does not exist — guernica is last.
	cookie, _ := visit(t, srv, "/ByAuthor/picasso/guernica.html", "")
	if _, err := srv.Adapt(); err != nil {
		t.Fatal(err)
	}

	w := newRecorder()
	srv.ServeHTTP(w, newRequest("/go/next", cookie))
	if w.Code != http.StatusSeeOther {
		t.Fatalf("/go/next after adapt = %d: %s", w.Code, w.Body.String())
	}
	if loc := w.Header().Get("Location"); loc != "/ByAuthor/picasso/avignon.html" {
		t.Errorf("post-adapt Next = %q, want the derived /ByAuthor/picasso/avignon.html", loc)
	}
}

// TestTraversalRecording: session-relative /go/ traversals feed the
// recorder too, including entries via context switches.
func TestTraversalRecording(t *testing.T) {
	srv, rec := analyticsServer(t)
	cookie, _ := visit(t, srv, "/ByAuthor/picasso/avignon.html", "")
	w := newRecorder()
	srv.ServeHTTP(w, newRequest("/go/next", cookie))
	if w.Code != http.StatusSeeOther {
		t.Fatalf("/go/next = %d", w.Code)
	}
	w = newRecorder()
	srv.ServeHTTP(w, newRequest("/go/switch?context=ByMovement:cubism", cookie))
	if w.Code != http.StatusSeeOther {
		t.Fatalf("/go/switch = %d: %s", w.Code, w.Body.String())
	}

	g := analytics.BuildGraph(rec.Snapshot())
	author := g.Contexts["ByAuthor:picasso"]
	if author == nil || author.NextCount("avignon", "guitar") != 1 {
		t.Errorf("author graph = %+v, want avignon->guitar traversal", author)
	}
	movement := g.Contexts["ByMovement:cubism"]
	if movement == nil || movement.Entries["guitar"] != 1 {
		t.Errorf("movement graph = %+v, want entry at guitar from the context switch", movement)
	}
}

// TestReloadNotRecorded: refreshing (or revalidating) the current page
// is not a traversal and must not pollute the transition graph.
func TestReloadNotRecorded(t *testing.T) {
	srv, rec := analyticsServer(t)
	cookie, _ := visit(t, srv, "/ByAuthor/picasso/guitar.html", "")
	for i := 0; i < 5; i++ {
		visit(t, srv, "/ByAuthor/picasso/guitar.html", cookie)
	}
	if st := rec.Stats(); st.Recorded != 1 {
		t.Errorf("recorded = %d, want 1 (the entry; reloads skipped)", st.Recorded)
	}
}

// TestStatsEndpoint: /stats exposes the recorder counters, adapt
// progress and per-context summaries.
func TestStatsEndpoint(t *testing.T) {
	srv, _ := analyticsServer(t)
	simulateDominantTraffic(t, srv, 4)
	if _, err := srv.Adapt(); err != nil {
		t.Fatal(err)
	}

	w := newRecorder()
	srv.ServeHTTP(w, newRequest("/stats", ""))
	if w.Code != http.StatusOK {
		t.Fatalf("/stats = %d", w.Code)
	}
	var payload struct {
		Analytics  bool `json:"analytics"`
		SampleRate int  `json:"sample_rate"`
		Recorder   struct {
			Recorded uint64 `json:"recorded"`
		} `json:"recorder"`
		AdaptGeneration   uint64 `json:"adapt_generation"`
		DerivedStructures uint64 `json:"derived_structures"`
		Contexts          map[string]struct {
			Hops     uint64                 `json:"hops"`
			TopEdges []analytics.Transition `json:"top_edges"`
		} `json:"contexts"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if !payload.Analytics || payload.SampleRate != 1 || payload.Recorder.Recorded == 0 {
		t.Errorf("payload = %+v", payload)
	}
	if payload.AdaptGeneration != 1 || payload.DerivedStructures == 0 {
		t.Errorf("adapt fields = %d/%d", payload.AdaptGeneration, payload.DerivedStructures)
	}
	picasso := payload.Contexts["ByAuthor:picasso"]
	if picasso.Hops == 0 || len(picasso.TopEdges) == 0 {
		t.Fatalf("picasso summary = %+v", picasso)
	}
	// Every step of the dominant path was walked equally often, so the
	// top edge must be one of its two transitions.
	top := picasso.TopEdges[0]
	onPath := (top.From == "guernica" && top.To == "avignon") ||
		(top.From == "avignon" && top.To == "guitar")
	if !onPath || top.Count != 4 {
		t.Errorf("top edge = %+v, want a dominant-path edge with count 4", top)
	}

	// Without a recorder the endpoint reports analytics off.
	plain, _ := testServer(t)
	w = newRecorder()
	plain.ServeHTTP(w, newRequest("/stats", ""))
	var off struct {
		Analytics bool `json:"analytics"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &off); err != nil {
		t.Fatal(err)
	}
	if off.Analytics {
		t.Error("recorder-less /stats reports analytics on")
	}
}

// TestHealthzAnalytics: the liveness payload carries the analytics
// counters the satellite task asks for.
func TestHealthzAnalytics(t *testing.T) {
	srv, _ := analyticsServer(t)
	simulateDominantTraffic(t, srv, 4)
	if _, err := srv.Adapt(); err != nil {
		t.Fatal(err)
	}
	w := newRecorder()
	srv.ServeHTTP(w, newRequest("/healthz", ""))
	var health struct {
		AnalyticsRecorded   uint64 `json:"analytics_recorded"`
		AnalyticsSampledOut uint64 `json:"analytics_sampled_out"`
		AdaptGeneration     uint64 `json:"adapt_generation"`
		DerivedStructures   uint64 `json:"derived_structures"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.AnalyticsRecorded == 0 || health.AdaptGeneration != 1 || health.DerivedStructures == 0 {
		t.Errorf("healthz analytics = %+v", health)
	}
}

// TestAdaptWithoutRecorder: Adapt on a recorder-less server errors
// rather than silently doing nothing.
func TestAdaptWithoutRecorder(t *testing.T) {
	srv, _ := testServer(t)
	if _, err := srv.Adapt(); err == nil {
		t.Error("Adapt without recorder = nil error")
	}
}

// TestTrailLimitOverHTTP: the server-side cap bounds /session history
// for long-lived crawler sessions.
func TestTrailLimitOverHTTP(t *testing.T) {
	srv, _ := analyticsServer(t, WithTrailLimit(3))
	cookie := ""
	for i := 0; i < 7; i++ {
		for _, page := range []string{"/ByAuthor/picasso/guitar.html", "/ByAuthor/picasso/guernica.html"} {
			cookie, _ = visit(t, srv, page, cookie)
		}
	}
	w := newRecorder()
	srv.ServeHTTP(w, newRequest("/session", cookie))
	var visits []navigation.Visit
	if err := json.Unmarshal(w.Body.Bytes(), &visits); err != nil {
		t.Fatal(err)
	}
	if len(visits) != 3 {
		t.Errorf("session history = %d visits, want 3 (capped)", len(visits))
	}
}

// TestAdaptationLoopAgainstTraffic is the -race hammer of the satellite
// task: live traversals, the adaptation loop, explicit access-structure
// swaps and stats reads all race over one server.
func TestAdaptationLoopAgainstTraffic(t *testing.T) {
	srv, _ := analyticsServer(t, WithDeriveConfig(analytics.Config{MinHops: 1}))
	stop := srv.StartAdaptation(time.Millisecond, 1)
	defer stop()

	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for v := 0; v < 4; v++ {
		wg.Add(1)
		go func() { // visitors walking the dominant path
			defer wg.Done()
			cookie := ""
			pages := []string{
				"/ByAuthor/picasso/guernica.html",
				"/ByAuthor/picasso/avignon.html",
				"/ByAuthor/picasso/guitar.html",
				"/ByMovement/cubism/guitar.html",
			}
			for time.Now().Before(deadline) {
				for _, page := range pages {
					w := newRecorder()
					srv.ServeHTTP(w, newRequest(page, cookie))
					if w.Code != http.StatusOK {
						t.Errorf("GET %s = %d", page, w.Code)
						return
					}
					if c := w.cookie(); c != "" {
						cookie = c
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // a traverser exercising the session-relative API
		defer wg.Done()
		cookie := ""
		w := newRecorder()
		srv.ServeHTTP(w, newRequest("/ByAuthor/picasso/avignon.html", cookie))
		cookie = w.cookie()
		for time.Now().Before(deadline) {
			for _, action := range []string{"/go/next", "/go/prev"} {
				w := newRecorder()
				srv.ServeHTTP(w, newRequest(action, cookie))
			}
		}
	}()
	wg.Add(1)
	go func() { // an operator flapping the other family's structure
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			var as navigation.AccessStructure = navigation.Index{}
			if i%2 == 0 {
				as = navigation.IndexedGuidedTour{}
			}
			if _, err := srv.app.SetAccessStructures(map[string]navigation.AccessStructure{"ByMovement": as}); err != nil {
				t.Errorf("SetAccessStructures: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // stats and health readers
		defer wg.Done()
		for time.Now().Before(deadline) {
			for _, path := range []string{"/stats", "/healthz"} {
				w := newRecorder()
				srv.ServeHTTP(w, newRequest(path, ""))
			}
		}
	}()
	wg.Wait()
	stop()

	// The server still serves coherently after the storm.
	w := newRecorder()
	srv.ServeHTTP(w, newRequest("/ByAuthor/picasso/guernica.html", ""))
	if w.Code != http.StatusOK {
		t.Fatalf("post-hammer GET = %d", w.Code)
	}
	if gen, _ := srv.AdaptStats(); gen == 0 {
		t.Error("adaptation loop never completed a cycle")
	}
}

// TestServeAllocsWithRecorder: enabling analytics must not blow the
// hot-path allocation budget — recording is alloc-free.
func TestServeAllocsWithRecorder(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	srv, _ := analyticsServer(t)
	rec := newRecorder()
	srv.ServeHTTP(rec, newRequest("/ByAuthor/picasso/guitar.html", ""))
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup = %d", rec.Code)
	}
	req := newRequest("/ByAuthor/picasso/guitar.html", rec.cookie())
	if avg := serveAllocs(t, srv, req); avg > maxPageServeAllocs {
		t.Errorf("hot page serve with recorder = %.1f allocs/op, budget %d", avg, maxPageServeAllocs)
	}
}

// TestStartAdaptationStopIdempotent mirrors the janitor contract.
func TestStartAdaptationStopIdempotent(t *testing.T) {
	srv, _ := analyticsServer(t)
	stop := srv.StartAdaptation(time.Hour, 1)
	stop()
	stop()
}
