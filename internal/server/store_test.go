package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
)

func testApp(t *testing.T) *core.App {
	t.Helper()
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// fakeClock is a settable clock for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestSessionStoreTTLEviction(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	st := newSessionStore(4, 10*time.Minute, clock.now)
	model := testApp(t).Resolved()

	st.put("alice", navigation.NewSession(model))
	st.put("bob", navigation.NewSession(model))
	if st.len() != 2 {
		t.Fatalf("len = %d, want 2", st.len())
	}

	// Access refreshes the deadline: alice stays alive past the
	// original expiry because she keeps visiting.
	clock.advance(6 * time.Minute)
	if st.get("alice") == nil {
		t.Fatal("alice evicted before TTL")
	}
	clock.advance(6 * time.Minute) // alice idle 6m, bob idle 12m
	if st.get("bob") != nil {
		t.Error("bob should have expired")
	}
	if st.get("alice") == nil {
		t.Error("alice's refreshed session should still be live")
	}

	clock.advance(11 * time.Minute)
	if n := st.evictExpired(); n != 1 {
		t.Errorf("evictExpired = %d, want 1 (alice)", n)
	}
	if st.len() != 0 {
		t.Errorf("len after eviction = %d, want 0", st.len())
	}
}

func TestSessionStoreNoTTL(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	st := newSessionStore(2, 0, clock.now)
	st.put("id", navigation.NewSession(testApp(t).Resolved()))
	clock.advance(1000 * time.Hour)
	if st.get("id") == nil {
		t.Error("ttl<=0 must mean no expiry")
	}
	if st.evictExpired() != 0 {
		t.Error("evictExpired should be a no-op without TTL")
	}
}

func TestSessionStoreSharding(t *testing.T) {
	st := newSessionStore(8, time.Hour, nil)
	model := testApp(t).Resolved()
	for i := 0; i < 100; i++ {
		st.put(fmt.Sprintf("visitor-%03d", i), navigation.NewSession(model))
	}
	if st.len() != 100 {
		t.Fatalf("len = %d, want 100", st.len())
	}
	used := 0
	for _, sh := range st.shards {
		if len(sh.entries) > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("only %d of 8 shards used; hash not spreading", used)
	}
}

// TestServerSessionTTLOverHTTP drives eviction through the handler.
func TestServerSessionTTLOverHTTP(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	srv := New(testApp(t), WithSessionTTL(10*time.Minute), withClock(clock.now))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := &http.Client{Jar: newCookieJar()}
	resp, err := client.Get(ts.URL + "/ByAuthor/picasso/guitar.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if srv.SessionCount() != 1 {
		t.Fatalf("sessions = %d, want 1", srv.SessionCount())
	}
	clock.advance(11 * time.Minute)
	if n := srv.EvictExpiredSessions(); n != 1 {
		t.Errorf("EvictExpiredSessions = %d, want 1", n)
	}
	// The stale cookie gets a fresh session (and trail) on return.
	resp, err = client.Get(ts.URL + "/ByAuthor/picasso/guernica.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if srv.SessionCount() != 1 {
		t.Errorf("sessions after revisit = %d, want 1", srv.SessionCount())
	}
}

// TestSessionCookieAttributes checks the cookie is HttpOnly and
// SameSite=Lax — the session id must be unreadable from page scripts.
func TestSessionCookieAttributes(t *testing.T) {
	srv := New(testApp(t))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/ByAuthor/picasso/guitar.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var cookie *http.Cookie
	for _, c := range resp.Cookies() {
		if c.Name == sessionCookie {
			cookie = c
		}
	}
	if cookie == nil {
		t.Fatal("no session cookie set")
	}
	if !cookie.HttpOnly {
		t.Error("session cookie not HttpOnly")
	}
	if cookie.SameSite != http.SameSiteLaxMode {
		t.Errorf("session cookie SameSite = %v, want Lax", cookie.SameSite)
	}
	if cookie.Path != "/" {
		t.Errorf("session cookie path = %q, want /", cookie.Path)
	}
}

// TestCachedServingMatchesUncached compares the server's pages, on the
// leading miss and on a cache hit, against an uncached weave
// (core.App.RenderPage) byte for byte.
func TestCachedServingMatchesUncached(t *testing.T) {
	app := testApp(t)
	cached := httptest.NewServer(New(app))
	defer cached.Close()

	for _, tc := range []struct{ path, context, node string }{
		{"/ByAuthor/picasso/guitar.html", "ByAuthor:picasso", "guitar"},
		{"/ByAuthor/picasso/index.html", "ByAuthor:picasso", navigation.HubID},
		{"/ByMovement/cubism/avignon.html", "ByMovement:cubism", "avignon"},
	} {
		_, hot := get(t, cached.Client(), cached.URL+tc.path)
		_, hot2 := get(t, cached.Client(), cached.URL+tc.path) // cache hit
		cold, err := app.RenderPage(tc.context, tc.node)
		if err != nil {
			t.Fatal(err)
		}
		if hot != string(cold.Body) || hot2 != string(cold.Body) {
			t.Errorf("cached page %s differs from uncached render", tc.path)
		}
	}
	if app.CachedPages() == 0 {
		t.Error("cached server did not populate the page cache")
	}
}

// TestCacheInvalidationOverHTTP asserts the paper's change-cost scenario
// under cached serving: after SetAccessStructures no stale page may be
// served.
func TestCacheInvalidationOverHTTP(t *testing.T) {
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.Index{}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(app))
	defer ts.Close()

	_, before := get(t, ts.Client(), ts.URL+"/ByAuthor/picasso/guitar.html")
	if strings.Contains(before, "nav-next") {
		t.Fatal("Index page should not have Next")
	}
	if _, err := app.SetAccessStructures(map[string]navigation.AccessStructure{"ByAuthor": navigation.IndexedGuidedTour{}}); err != nil {
		t.Fatal(err)
	}
	_, after := get(t, ts.Client(), ts.URL+"/ByAuthor/picasso/guitar.html")
	if !strings.Contains(after, "nav-next") {
		t.Error("stale cached page served after access-structure change")
	}
}

// TestConcurrentHTTPTraffic hammers the handler from many goroutines
// with separate sessions; run with -race.
func TestConcurrentHTTPTraffic(t *testing.T) {
	srv := New(testApp(t), WithSessionShards(8))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	paths := []string{
		"/ByAuthor/picasso/guitar.html",
		"/ByAuthor/picasso/guernica.html",
		"/ByMovement/cubism/avignon.html",
		"/ByAuthor/picasso/index.html",
		"/session",
		"/arcs?node=guitar",
	}
	const visitors = 8
	var wg sync.WaitGroup
	for v := 0; v < visitors; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			client := &http.Client{Jar: newCookieJar()}
			for i := 0; i < 25; i++ {
				resp, err := client.Get(ts.URL + paths[(v+i)%len(paths)])
				if err != nil {
					t.Errorf("visitor %d: %v", v, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("visitor %d: %s -> %d", v, paths[(v+i)%len(paths)], resp.StatusCode)
					return
				}
			}
		}(v)
	}
	wg.Wait()
	if got := srv.SessionCount(); got != visitors {
		t.Errorf("sessions = %d, want %d", got, visitors)
	}
}
