package loadgen

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/load"
)

func TestQuantileExact(t *testing.T) {
	var s Samples
	for _, i := range rand.New(rand.NewSource(1)).Perm(1000) {
		s.Add(time.Duration(i+1) * time.Millisecond)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1},
	} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Median([]float64{3, 1, 2, 10}); got != 2 {
		t.Errorf("Median = %v, want 2 (nearest rank)", got)
	}
	// Two sample sets that differ in one value report different
	// quantiles: nothing is rounded into a bucket.
	var a, b Samples
	for i := 0; i < 101; i++ {
		a.Add(time.Duration(1000+i) * time.Microsecond)
		b.Add(time.Duration(1000+i) * time.Microsecond)
	}
	b.v[50] += 0.0001
	if a.Quantile(0.5) == b.Quantile(0.5) {
		t.Error("a 100ns change at the median did not change the median")
	}
}

var testSite = &Site{Contexts: []load.SiteContext{
	{Name: "A:x", Entry: hubNode, HasHub: true, Members: []string{"p1", "p2", "p3"}},
	{Name: "B:y", Entry: hubNode, HasHub: true, Members: []string{"p2", "p4"}},
}}

func TestScheduleDeterministic(t *testing.T) {
	plan := Plan{Seed: 7, Arrivals: 50, Horizon: 3 * time.Second, Steps: 10, Think: 100 * time.Millisecond,
		Mix:         Mix{Next: 3, Back: 2, Forward: 1, Select: 1, Jump: 2, Reload: 1, Storm: 1},
		ReturnShare: 0.3, Returners: 20, WriteEvery: 200 * time.Millisecond,
		SwapFamily: "A", SwapKinds: [2]string{"index", "indexed-guided-tour"}}
	a, b := plan.Schedule(testSite), plan.Schedule(testSite)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	other := plan
	other.Seed = 8
	if reflect.DeepEqual(a, other.Schedule(testSite)) {
		t.Fatal("a different seed gave the same schedule")
	}
	returning, writes := 0, 0
	for _, s := range a {
		for i, st := range s.Steps {
			if st.Due >= plan.Horizon || (i > 0 && st.Due < s.Steps[i-1].Due) {
				t.Fatalf("session %d step %d due %v out of order or past the horizon", s.ID, i, st.Due)
			}
			if st.Act == ActPatch || st.Act == ActSwap {
				writes++
			}
		}
		if s.Returner >= 0 {
			returning++
			if s.Steps[0].Act != ActResume {
				t.Fatalf("returning session %d starts with %v", s.ID, s.Steps[0].Act)
			}
		}
	}
	if returning == 0 || returning > plan.Returners || writes != 15 {
		t.Fatalf("returning %d (max %d), writes %d (want 15)", returning, plan.Returners, writes)
	}
	if !reflect.DeepEqual(plan.Visitors(testSite, 0, 5), plan.Visitors(testSite, 0, 5)) {
		t.Fatal("closed-loop visitors are not deterministic")
	}
}

// stub is a minimal server with the wire behaviour the generator
// checks. Its wrong* switches make it give one kind of wrong answer.
type stub struct {
	mu       sync.Mutex
	hist     map[string]*mirror
	attrs    map[string]string
	resumed  []Entry
	stallAt  int64 // request number that stalls, 0 for none
	stallFor time.Duration
	n        atomic.Int64

	wrongBack, stalePatch, lostHistory bool
}

func (s *stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.n.Add(1) == s.stallAt {
		time.Sleep(s.stallFor)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := ""
	if c, err := r.Cookie("navsession"); err == nil {
		id = c.Value
	}
	m := s.hist[id]
	if m == nil {
		id = "s" + time.Now().Format("150405.000000000")
		m = &mirror{}
		s.hist[id] = m
		http.SetCookie(w, &http.Cookie{Name: "navsession", Value: id, Path: "/"})
	}
	switch {
	case r.Method == http.MethodPatch:
		var body struct{ Set map[string]string }
		_ = json.NewDecoder(r.Body).Decode(&body)
		if !s.stalePatch {
			s.attrs[strings.TrimPrefix(r.URL.Path, "/api/v1/documents/")] = body.Set["technique"]
		}
	case r.URL.Path == "/history":
		if id == "returner" {
			entries := s.resumed
			if s.lostHistory {
				entries = entries[:1]
			}
			_ = json.NewEncoder(w).Encode(map[string]any{"entries": entries, "cursor": len(entries) - 1})
		}
	case r.URL.Path == "/go/back":
		if !m.canBack() {
			w.WriteHeader(http.StatusConflict)
			return
		}
		m.cur--
		to := m.nav[m.cur]
		if s.wrongBack {
			to.NodeID = "p3"
		}
		http.Redirect(w, r, PagePath(to), http.StatusSeeOther)
	case strings.HasSuffix(r.URL.Path, ".html"):
		e, _ := parsePagePath(r.URL.Path)
		m.navigate(e)
		_, _ = io.WriteString(w, "<html>"+s.attrs[e.NodeID]+"</html>")
	}
}

func newStub() *stub {
	return &stub{hist: map[string]*mirror{}, attrs: map[string]string{}}
}

func serve(t *testing.T, h http.Handler) string {
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func runOne(t *testing.T, st *stub, sessions []Session, returners []Returner) *Result {
	t.Helper()
	return Run(Options{Addr: serve(t, st), Site: testSite, Workers: 1, Start: time.Now(),
		MeasureTo: time.Hour, Drain: time.Second, Returners: returners}, sessions)
}

// TestCoordinatedOmission stalls the server once and checks that every
// request due during the stall is charged the wait it imposed, which a
// send-time clock would hide.
func TestCoordinatedOmission(t *testing.T) {
	const stall = 200 * time.Millisecond
	st := newStub()
	st.stallAt, st.stallFor = 100, stall
	var steps []Step
	for i := 0; i < 1000; i++ {
		steps = append(steps, Step{Due: time.Duration(i) * time.Millisecond, Act: ActJump, Path: "/A/x/p1.html"})
	}
	res := runOne(t, st, []Session{{ID: 1, Returner: -1, Steps: steps}}, nil)
	if res.Failed != 0 || res.Page.Len() != 1000 {
		t.Fatalf("failed %d, %d page samples", res.Failed, res.Page.Len())
	}
	if p99 := res.Page.Quantile(0.99); p99 < float64(stall/time.Millisecond)*0.9 {
		t.Errorf("page p99 %.1f ms, want at least the %v stall", p99, stall)
	}
	if lag := res.Lag.Quantile(0.99); lag < float64(stall/time.Millisecond)*0.9 {
		t.Errorf("lag p99 %.1f ms does not report the stall", lag)
	}
	if sent := res.PageSend.Quantile(0.99); sent > float64(stall/time.Millisecond)/2 {
		t.Errorf("send-timed p99 %.1f ms: the test does not separate the two clocks", sent)
	}
}

func TestHistoryMismatchCaught(t *testing.T) {
	walk := []Session{{ID: 1, Returner: -1, Steps: []Step{
		{Act: ActOpen, Path: "/A/x/p1.html"}, {Act: ActJump, Path: "/A/x/p2.html"}, {Act: ActBack},
	}}}
	if res := runOne(t, newStub(), walk, nil); res.Violations != 0 {
		t.Fatalf("correct server flagged: %s", res.FirstViolation)
	}
	st := newStub()
	st.wrongBack = true
	if res := runOne(t, st, walk, nil); res.Violations != 1 || res.Failed != 1 {
		t.Fatalf("wrong /go/back redirect not caught: %d violations", res.Violations)
	}
}

func TestStalePageAfterMutationCaught(t *testing.T) {
	write := []Session{{ID: 1, Returner: -1, Steps: []Step{
		{Act: ActPatch, Doc: "p2", Path: "/A/x/p2.html", Value: "bench-1-0"},
	}}}
	if res := runOne(t, newStub(), write, nil); res.Violations != 0 || res.Mutations != 1 {
		t.Fatalf("correct server flagged: %s", res.FirstViolation)
	}
	st := newStub()
	st.stalePatch = true
	if res := runOne(t, st, write, nil); res.Violations != 1 {
		t.Fatalf("stale page after an acknowledged PATCH not caught")
	}
}

func TestLostHistoryCaught(t *testing.T) {
	entries := []Entry{{Context: "A:x", NodeID: "p1"}, {Context: "A:x", NodeID: "p2"}, {Context: "B:y", NodeID: "p4"}}
	ret := []Returner{{Cookie: "returner", Entries: entries, Cursor: 2}}
	visit := []Session{{ID: 1, Returner: 0, Steps: []Step{{Act: ActResume}}}}
	st := newStub()
	st.resumed = entries
	st.hist["returner"] = &mirror{nav: entries, cur: 2}
	if res := runOne(t, st, visit, ret); res.Violations != 0 || res.Resume.Len() != 1 {
		t.Fatalf("correct server flagged: %s", res.FirstViolation)
	}
	st.lostHistory = true
	if res := runOne(t, st, visit, ret); res.Violations != 1 {
		t.Fatalf("returning visitor's lost history not caught")
	}
}
