// Package loadgen is the benchmark's traffic generator. It speaks only
// HTTP to the server under test and imports no serving package, so its
// correctness checks (history against its own Brewster–Jeffrey mirror,
// freshness after a mutation, resumed histories) stay independent of
// the code they check.
//
// A run is open-loop: every step has a due time fixed by the schedule,
// and its latency is measured from that due time, so a stall is charged
// to every request it delays — including requests queued behind it on
// the same connection and steps that had to wait for their
// predecessor's cookie or redirect.
package loadgen

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Returner is a visitor from an earlier server instance: the cookie
// and the history that instance reported for it.
type Returner struct {
	Cookie  string
	Entries []Entry
	Cursor  int
}

// Options configure one run of the generator.
type Options struct {
	Addr    string // host:port of the server under test
	Token   string // control-plane bearer token
	Site    *Site
	Workers int // goroutines, each with one connection

	// Open loop: Start is the schedule's time zero; steps due in
	// [MeasureFrom, MeasureTo) are sampled, steps due later are not
	// sent, and steps still unsent Drain after MeasureTo count as
	// failed.
	Start                  time.Time
	MeasureFrom, MeasureTo time.Duration
	Drain                  time.Duration
	// Window > 0 also keeps the samples per window of due times, so a
	// window measured while the host was busy can be told apart.
	Window time.Duration

	// Closed > 0 runs a closed loop instead: each worker sends its
	// sessions' steps back to back, ignoring due times, for this long.
	Closed time.Duration

	Returners []Returner
	Tag       bool // send a request id in ReqHeader
	Record    bool // keep each session's cookie and server-side navigation ops
}

// Visitor is a session as the run left it: its cookie and, when the
// run kept ops, what the server did for it.
type Visitor struct {
	ID     int
	Cookie string
	Ops    []Op
}

// Op is one navigation call the server made on a session's behalf, in
// the terms of navigation.Session: Kind is "enter", "next", "prev",
// "up", "select", "back" or "forward".
type Op struct {
	Kind string
	At   Entry // enter: the page; select: NodeID is the member
}

// Result is what one run measured. Latency samples hold only steps due
// inside the measurement window; counts cover every request sent.
type Result struct {
	Page     Samples // page GETs, from the due time (a landing GET: from its redirect)
	PageSend Samples // page GETs, from the moment they were sent
	Step     Samples // one click: /go/* 303 plus the landing GET, from the due time
	Mutate   Samples // control-plane mutation responses, from the due time
	Resume   Samples // a returning visitor's first request, from the due time
	Lag      Samples // how late each step was sent

	Windows []Window // per Options.Window of due times

	Attempted, Failed uint64 // requests; Failed includes Violations
	Violations        uint64 // wrong answers
	FirstViolation    string
	Completed         uint64 // requests answered, whatever the status
	Saves             uint64 // answers after which the server saved a session
	Mutations         uint64
	PerSecond         []uint64  // closed loop: requests answered in each second of the run
	Visitors          []Visitor // with Options.Record, up to maxRecorded per worker
}

func (r *Result) merge(o *Result) {
	r.Page.Merge(&o.Page)
	r.PageSend.Merge(&o.PageSend)
	r.Step.Merge(&o.Step)
	r.Mutate.Merge(&o.Mutate)
	r.Resume.Merge(&o.Resume)
	r.Lag.Merge(&o.Lag)
	for i := range o.Windows {
		r.window(i).merge(&o.Windows[i])
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	if r.Violations == 0 {
		r.FirstViolation = o.FirstViolation
	}
	r.Violations += o.Violations
	r.Completed += o.Completed
	r.Saves += o.Saves
	r.Mutations += o.Mutations
	r.Visitors = append(r.Visitors, o.Visitors...)
	for i, n := range o.PerSecond {
		if i == len(r.PerSecond) {
			r.PerSecond = append(r.PerSecond, 0)
		}
		r.PerSecond[i] += n
	}
}

// Window is what the steps due in one Options.Window measured.
type Window struct {
	Page, Step, Mutate, Resume Samples
	Requests                   uint64 // requests sent for those steps
}

func (w *Window) merge(o *Window) {
	w.Page.Merge(&o.Page)
	w.Step.Merge(&o.Step)
	w.Mutate.Merge(&o.Mutate)
	w.Resume.Merge(&o.Resume)
	w.Requests += o.Requests
}

// window returns window i, growing the list as needed.
func (r *Result) window(i int) *Window {
	for len(r.Windows) <= i {
		r.Windows = append(r.Windows, Window{})
	}
	return &r.Windows[i]
}

// maxRecorded bounds the sessions whose ops a worker keeps.
const maxRecorded = 2000

// Run executes sessions and returns the merged result. Session i runs
// on worker i mod Workers, so one visitor's requests stay in order on
// one connection.
func Run(o Options, sessions []Session) *Result {
	n := o.Workers
	if n < 1 {
		n = 1
	}
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &worker{o: &o, c: conn{addr: o.Addr}, idBase: uint64(i+1) << 48}
		var mine []*live
		for j := i; j < len(sessions); j += n {
			mine = append(mine, &live{s: &sessions[j]})
		}
		results[i] = &w.res
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.c.close()
			if o.Closed > 0 {
				w.closedLoop(mine)
			} else {
				w.openLoop(mine)
			}
		}()
	}
	wg.Wait()
	out := &Result{}
	for _, r := range results {
		out.merge(r)
	}
	return out
}

// live is a session's state while it runs.
type live struct {
	s      *Session
	next   int
	cookie string
	m      mirror
	etags  map[string]string
	ops    []Op
}

type liveHeap []*live

func (h liveHeap) Len() int { return len(h) }
func (h liveHeap) Less(i, j int) bool {
	return h[i].s.Steps[h[i].next].Due < h[j].s.Steps[h[j].next].Due
}
func (h liveHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *liveHeap) Push(x any)   { *h = append(*h, x.(*live)) }
func (h *liveHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type worker struct {
	o      *Options
	c      conn
	res    Result
	idBase uint64
	nreq   uint64
	win    int // the running step's sampling window, -1 when not sampled
}

// sample records d into the running step's window, when it has one.
func (w *worker) sample(pick func(*Window) *Samples, d time.Duration) {
	if w.win >= 0 && w.o.Window > 0 {
		pick(w.res.window(w.win)).Add(d)
	}
}

func (w *worker) openLoop(sessions []*live) {
	h := liveHeap{}
	for _, l := range sessions {
		if len(l.s.Steps) > 0 {
			h = append(h, l)
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		l := h[0]
		st := &l.s.Steps[l.next]
		if st.Due >= w.o.MeasureTo {
			w.retire(heap.Pop(&h).(*live))
			continue
		}
		due := w.o.Start.Add(st.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if time.Since(w.o.Start) > w.o.MeasureTo+w.o.Drain {
			// Everything still queued was due inside the run and never
			// sent: each such step counts as one failed request.
			for _, l := range h {
				for _, st := range l.s.Steps[l.next:] {
					if st.Due < w.o.MeasureTo {
						w.res.Attempted++
						w.res.Failed++
					}
				}
			}
			return
		}
		win := -1
		if st.Due >= w.o.MeasureFrom {
			win = 0
			if w.o.Window > 0 {
				win = int((st.Due - w.o.MeasureFrom) / w.o.Window)
			}
		}
		w.exec(l, st, due, win)
		l.next++
		if l.next == len(l.s.Steps) {
			w.retire(heap.Pop(&h).(*live))
		} else {
			heap.Fix(&h, 0)
		}
	}
}

func (w *worker) closedLoop(sessions []*live) {
	start := time.Now()
	w.res.PerSecond = make([]uint64, (w.o.Closed+time.Second-1)/time.Second)
	for _, l := range sessions {
		for i := range l.s.Steps {
			before := w.res.Completed
			w.exec(l, &l.s.Steps[i], time.Now(), -1)
			sec := int(time.Since(start) / time.Second)
			if sec >= len(w.res.PerSecond) {
				return
			}
			w.res.PerSecond[sec] += w.res.Completed - before
		}
		w.retire(l)
	}
}

func (w *worker) retire(l *live) {
	if w.o.Record && l.cookie != "" && len(w.res.Visitors) < maxRecorded {
		w.res.Visitors = append(w.res.Visitors, Visitor{ID: l.s.ID, Cookie: l.cookie, Ops: l.ops})
	}
	l.ops = nil
}

func (w *worker) violation(l *live, format string, args ...any) {
	w.res.Violations++
	w.res.Failed++
	if w.res.FirstViolation == "" {
		w.res.FirstViolation = fmt.Sprintf("session %d: ", l.s.ID) + fmt.Sprintf(format, args...)
	}
}

func (w *worker) op(l *live, kind string, at Entry) {
	if w.o.Record {
		l.ops = append(l.ops, Op{Kind: kind, At: at})
	}
}

// send issues one request for l. It reports false after a transport
// error or a 5xx (shed 503s included), which count as failed.
func (w *worker) send(l *live, rq *request) (resp response, sent, done time.Time, ok bool) {
	rq.cookie = l.cookie
	if w.o.Tag {
		w.nreq++
		rq.id = w.idBase | w.nreq
	}
	w.res.Attempted++
	if w.win >= 0 && w.o.Window > 0 {
		w.res.window(w.win).Requests++
	}
	sent = time.Now()
	resp, err := w.c.do(rq)
	done = time.Now()
	if err != nil {
		w.res.Failed++
		return resp, sent, done, false
	}
	w.res.Completed++
	if c := sessionCookie(resp.setCookie); c != "" {
		l.cookie = c
	}
	if resp.status >= 500 {
		w.res.Failed++
		return resp, sent, done, false
	}
	return resp, sent, done, true
}

// exec runs one step that was due at due. win is the step's sampling
// window, -1 when the step is not sampled.
func (w *worker) exec(l *live, st *Step, due time.Time, win int) {
	w.win = win
	measure := win >= 0
	if measure {
		w.res.Lag.Add(time.Since(due))
	}
	switch st.Act {
	case ActOpen, ActJump:
		e, _ := parsePagePath(st.Path)
		if w.page(l, st.Path, due, win, false) {
			l.m.navigate(e)
		}
	case ActNext, ActPrev, ActUp:
		w.traverse(l, st.Act, "/go/"+[...]string{ActNext: "next", ActPrev: "prev", ActUp: "up"}[st.Act], due, win)
	case ActSelect:
		cur, ok := l.m.current()
		c := contextOf(w.o.Site, cur.Context)
		if !ok || c == nil {
			return
		}
		w.traverse(l, ActSelect, "/go/select?node="+c.Members[int(st.Pick%uint32(len(c.Members)))], due, win)
	case ActBack:
		w.traverse(l, ActBack, "/go/back", due, win)
	case ActForward:
		w.traverse(l, ActForward, "/go/forward", due, win)
	case ActReload:
		w.reload(l, due, win)
	case ActStorm:
		// The visitor presses reload again once the previous answer is
		// in, as navload's storms do: like a landing GET, each reload
		// after the first is timed from its predecessor's answer.
		from := due
		for i := 0; i < st.N; i++ {
			w.reload(l, from, win)
			from = time.Now()
		}
	case ActResume:
		w.resume(l, due, win)
	case ActPatch:
		w.patch(l, st, due, win)
	case ActSwap:
		rq := request{method: http.MethodPut, path: "/api/v1/contexts/" + st.Doc + "/structure",
			token: w.o.Token, body: `{"kind":"` + st.Value + `"}`}
		resp, _, done, ok := w.send(l, &rq)
		if !ok {
			return
		}
		if resp.status != http.StatusOK {
			w.violation(l, "PUT %s structure %s: status %d", st.Doc, st.Value, resp.status)
			return
		}
		w.res.Mutations++
		if measure {
			w.res.Mutate.Add(done.Sub(due))
			w.sample(func(x *Window) *Samples { return &x.Mutate }, done.Sub(due))
		}
	}
}

// page GETs a page. from is when the visitor asked for it. It reports
// whether the server served the page (200, or 304 to a revalidation).
func (w *worker) page(l *live, path string, from time.Time, win int, revalidate bool) bool {
	rq := request{method: http.MethodGet, path: path}
	if revalidate {
		rq.inm = l.etags[path]
	}
	resp, sent, done, ok := w.send(l, &rq)
	if !ok {
		return false
	}
	switch {
	case resp.status == http.StatusOK:
		if resp.etag != "" {
			if l.etags == nil {
				l.etags = map[string]string{}
			}
			l.etags[path] = resp.etag
		}
	case resp.status == http.StatusNotModified && rq.inm != "":
	default:
		w.violation(l, "GET %s: status %d", path, resp.status)
		return false
	}
	w.res.Saves++
	if e, ok := parsePagePath(path); ok {
		w.op(l, "enter", e)
	}
	if win >= 0 {
		w.res.Page.Add(done.Sub(from))
		w.res.PageSend.Add(done.Sub(sent))
		w.sample(func(x *Window) *Samples { return &x.Page }, done.Sub(from))
	}
	return true
}

func (w *worker) reload(l *live, due time.Time, win int) {
	if cur, ok := l.m.current(); ok {
		w.page(l, PagePath(cur), due, win, true)
	}
}

var actOp = [...]string{ActNext: "next", ActPrev: "prev", ActUp: "up", ActSelect: "select",
	ActBack: "back", ActForward: "forward"}

// traverse follows one /go/ action and loads the page it redirects to.
// For back and forward the redirect must land exactly where the mirror
// says, and a 409 is right only when the mirror has nowhere to go.
func (w *worker) traverse(l *live, act Act, path string, due time.Time, win int) {
	history := act == ActBack || act == ActForward
	var want Entry
	can := false
	if history {
		if act == ActBack && l.m.canBack() {
			want, can = l.m.nav[l.m.cur-1], true
		}
		if act == ActForward && l.m.canForward() {
			want, can = l.m.nav[l.m.cur+1], true
		}
	}
	resp, _, done, ok := w.send(l, &request{method: http.MethodGet, path: path})
	if !ok {
		return
	}
	switch resp.status {
	case http.StatusSeeOther:
	case http.StatusConflict:
		if can {
			w.violation(l, "%s: 409 but the history has %v", path, want)
		}
		return
	default:
		w.violation(l, "%s: status %d", path, resp.status)
		return
	}
	to, okPath := parsePagePath(resp.location)
	if !okPath {
		w.violation(l, "%s: redirect to %q is not a page", path, resp.location)
		return
	}
	w.res.Saves++
	switch {
	case history && !can:
		w.violation(l, "%s: redirect to %s but the history has no entry there", path, resp.location)
		return
	case history && to != want:
		w.violation(l, "%s: redirect to %s, history says %s", path, resp.location, PagePath(want))
		return
	case act == ActBack:
		l.m.cur--
	case act == ActForward:
		l.m.cur++
	default:
		l.m.navigate(to)
	}
	w.op(l, actOp[act], to)
	if w.page(l, PagePath(to), done, win, false) && win >= 0 {
		d := time.Since(due)
		w.res.Step.Add(d)
		w.sample(func(x *Window) *Samples { return &x.Step }, d)
	}
}

type historyBody struct {
	Entries []Entry `json:"entries"`
	Cursor  int     `json:"cursor"`
}

// resume is a returning visitor's first request: GET /history with the
// cookie an earlier server instance set, which the server under test
// must rehydrate from its store, intact.
func (w *worker) resume(l *live, due time.Time, win int) {
	r := w.o.Returners[l.s.Returner]
	l.cookie = r.Cookie
	resp, _, done, ok := w.send(l, &request{method: http.MethodGet, path: "/history", keepBody: true})
	if !ok {
		return
	}
	var got historyBody
	if resp.status != http.StatusOK {
		w.violation(l, "GET /history: status %d", resp.status)
		return
	}
	if err := json.Unmarshal(resp.body, &got); err != nil {
		w.violation(l, "GET /history: %v", err)
		return
	}
	if l.cookie != r.Cookie || got.Cursor != r.Cursor || !equalEntries(got.Entries, r.Entries) {
		w.violation(l, "returning visitor's history lost: got %d entries at %d, want %d at %d",
			len(got.Entries), got.Cursor, len(r.Entries), r.Cursor)
		return
	}
	l.m = mirror{nav: append([]Entry(nil), r.Entries...), cur: r.Cursor}
	if win >= 0 {
		w.res.Resume.Add(done.Sub(due))
		w.sample(func(x *Window) *Samples { return &x.Resume }, done.Sub(due))
	}
}

func equalEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// patch edits one painting's technique and then loads a page showing
// that painting: once the PATCH is acknowledged, no page may be served
// without the new value.
func (w *worker) patch(l *live, st *Step, due time.Time, win int) {
	rq := request{method: http.MethodPatch, path: "/api/v1/documents/" + st.Doc, token: w.o.Token,
		body: `{"set":{"technique":` + strconv.Quote(st.Value) + `}}`}
	resp, _, done, ok := w.send(l, &rq)
	if !ok {
		return
	}
	if resp.status != http.StatusOK {
		w.violation(l, "PATCH %s: status %d", st.Doc, resp.status)
		return
	}
	w.res.Mutations++
	if win >= 0 {
		w.res.Mutate.Add(done.Sub(due))
		w.sample(func(x *Window) *Samples { return &x.Mutate }, done.Sub(due))
	}
	resp, _, _, ok = w.send(l, &request{method: http.MethodGet, path: st.Path, keepBody: true})
	if !ok {
		return
	}
	if resp.status != http.StatusOK || !bytes.Contains(resp.body, []byte(st.Value)) {
		w.violation(l, "GET %s after PATCH %s: status %d, patched value %q missing", st.Path, st.Doc, resp.status, st.Value)
	}
}
