package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(app)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func get(t *testing.T, client *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestSiteMap(t *testing.T) {
	_, ts := testServer(t)
	code, body := get(t, ts.Client(), ts.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"ByAuthor:picasso",
		"ByMovement:cubism",
		`href="/ByAuthor/picasso/index.html"`,
		"links.xml",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("site map missing %q:\n%s", want, body)
		}
	}
}

// TestSiteMapDuringContextChurn: a document edit that empties a
// Where-filtered group drops that context from the resolved model (empty
// groups are not materialised), so the site map must render from one
// resolved snapshot — looking a listed context up again in a newer model
// finds nothing. Run with -race.
func TestSiteMapDuringContextChurn(t *testing.T) {
	model := museum.Model(navigation.IndexedGuidedTour{})
	// Dali's only oil painting is memory: toggling its technique empties
	// and refills the OilByAuthor:dali group.
	model.MustAddContext(&navigation.ContextDef{
		Name: "OilByAuthor", NodeClass: "PaintingNode", GroupBy: "paints",
		Where: "technique = 'Oil on canvas'", Access: navigation.Index{},
	})
	app, err := core.NewApp(museum.PaperStore(), model)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(app))
	defer ts.Close()

	stop := make(chan struct{})
	edits := make(chan error, 1)
	go func() {
		techniques := []string{"Watercolor", "Oil on canvas"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				edits <- nil
				return
			default:
			}
			if _, err := app.EditDocument("memory", map[string]string{"technique": techniques[i%2]}); err != nil {
				edits <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				resp, err := ts.Client().Get(ts.URL + "/")
				if err != nil {
					t.Errorf("GET / during churn: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ByAuthor:picasso") {
					t.Errorf("GET / during churn = %d:\n%s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-edits; err != nil {
		t.Fatal(err)
	}
}

func TestServePage(t *testing.T) {
	_, ts := testServer(t)
	code, body := get(t, ts.Client(), ts.URL+"/ByAuthor/picasso/guitar.html")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"<h1>Guitar</h1>", "nav-next", "nav-prev", "nav-up"} {
		if !strings.Contains(body, want) {
			t.Errorf("page missing %q", want)
		}
	}
	// Hub page.
	code, body = get(t, ts.Client(), ts.URL+"/ByAuthor/picasso/index.html")
	if code != http.StatusOK || !strings.Contains(body, "Index of ByAuthor:picasso") {
		t.Errorf("hub: %d %s", code, body)
	}
}

func TestServeXMLDocuments(t *testing.T) {
	_, ts := testServer(t)
	code, body := get(t, ts.Client(), ts.URL+"/links.xml")
	if code != http.StatusOK || !strings.Contains(body, "xlink") {
		t.Errorf("links.xml: %d", code)
	}
	code, body = get(t, ts.Client(), ts.URL+"/data/guitar.xml")
	if code != http.StatusOK || !strings.Contains(body, "<title>Guitar</title>") {
		t.Errorf("data doc: %d %s", code, body)
	}
	code, _ = get(t, ts.Client(), ts.URL+"/data/missing.xml")
	if code != http.StatusNotFound {
		t.Errorf("missing data doc status = %d", code)
	}
}

func TestNotFoundPaths(t *testing.T) {
	_, ts := testServer(t)
	for _, path := range []string{
		"/Nowhere/at/all.html",
		"/ByAuthor/picasso/memory.html", // not a member of this context
		"/short.html",
		"/unknown",
	} {
		code, _ := get(t, ts.Client(), ts.URL+path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
}

// TestSessionTrail drives the paper's museum walk over HTTP and checks
// the session endpoint returns the context-qualified history.
func TestSessionTrail(t *testing.T) {
	srv, ts := testServer(t)
	jar := newCookieJar()
	client := &http.Client{Jar: jar}

	for _, path := range []string{
		"/ByAuthor/picasso/index.html",
		"/ByAuthor/picasso/guitar.html",
		"/ByAuthor/picasso/guernica.html",
		"/ByMovement/surrealism/guernica.html", // the context switch
		"/ByMovement/surrealism/memory.html",
	} {
		if code, _ := get(t, client, ts.URL+path); code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, code)
		}
	}
	_, body := get(t, client, ts.URL+"/session")
	var visits []navigation.Visit
	if err := json.Unmarshal([]byte(body), &visits); err != nil {
		t.Fatalf("session JSON: %v in %q", err, body)
	}
	if len(visits) != 5 {
		t.Fatalf("visits = %d, want 5: %+v", len(visits), visits)
	}
	if visits[2].Context != "ByAuthor:picasso" || visits[2].NodeID != "guernica" {
		t.Errorf("visit[2] = %+v", visits[2])
	}
	if visits[3].Context != "ByMovement:surrealism" || visits[3].NodeID != "guernica" {
		t.Errorf("visit[3] (context switch) = %+v", visits[3])
	}
	if srv.SessionCount() != 1 {
		t.Errorf("sessions = %d, want 1", srv.SessionCount())
	}
}

func TestSessionWithoutCookie(t *testing.T) {
	_, ts := testServer(t)
	_, body := get(t, ts.Client(), ts.URL+"/session")
	if strings.TrimSpace(body) != "[]" {
		t.Errorf("fresh session = %q, want []", body)
	}
}

func TestSeparateSessionsSeparateTrails(t *testing.T) {
	srv, ts := testServer(t)
	alice := &http.Client{Jar: newCookieJar()}
	bob := &http.Client{Jar: newCookieJar()}
	get(t, alice, ts.URL+"/ByAuthor/picasso/guitar.html")
	get(t, bob, ts.URL+"/ByMovement/cubism/guitar.html")
	get(t, bob, ts.URL+"/ByMovement/cubism/avignon.html")

	_, aliceBody := get(t, alice, ts.URL+"/session")
	var aliceVisits []navigation.Visit
	_ = json.Unmarshal([]byte(aliceBody), &aliceVisits)
	if len(aliceVisits) != 1 || aliceVisits[0].Context != "ByAuthor:picasso" {
		t.Errorf("alice visits = %+v", aliceVisits)
	}
	_, bobBody := get(t, bob, ts.URL+"/session")
	var bobVisits []navigation.Visit
	_ = json.Unmarshal([]byte(bobBody), &bobVisits)
	if len(bobVisits) != 2 || bobVisits[0].Context != "ByMovement:cubism" {
		t.Errorf("bob visits = %+v", bobVisits)
	}
	if srv.SessionCount() != 2 {
		t.Errorf("sessions = %d, want 2", srv.SessionCount())
	}
}

// cookieJar is a minimal cookie jar for tests; it keeps the session
// cookie handling transparent.
type cookieJar struct {
	cookies map[string]*http.Cookie
}

func newCookieJar() *cookieJar { return &cookieJar{cookies: map[string]*http.Cookie{}} }

func (j *cookieJar) SetCookies(_ *url.URL, cookies []*http.Cookie) {
	for _, c := range cookies {
		j.cookies[c.Name] = c
	}
}

func (j *cookieJar) Cookies(_ *url.URL) []*http.Cookie {
	var out []*http.Cookie
	for _, c := range j.cookies {
		out = append(out, c)
	}
	return out
}
