package loadgen

import (
	"math/rand"
	"strconv"
	"time"
)

// Act is one visitor or operator action.
type Act uint8

const (
	ActOpen    Act = iota // GET a page as a new visitor's first request
	ActJump               // GET a page directly, as from a bookmark
	ActNext               // /go/next, then the landing page
	ActPrev               // /go/prev, then the landing page
	ActUp                 // /go/up, then the landing page
	ActSelect             // /go/select?node=, then the landing page
	ActBack               // /go/back, then the landing page
	ActForward            // /go/forward, then the landing page
	ActReload             // re-GET the current page with If-None-Match
	ActStorm              // several reloads in a row, each once the previous is answered
	ActResume             // a returning visitor's GET /history
	ActPatch              // PATCH a document, then GET a page showing it
	ActSwap               // PUT a context family's access structure
)

// Step is one scheduled action. Due is the offset from the start of
// the run at which the visitor (or operator) asks for it; it does not
// depend on how fast the server answers.
type Step struct {
	Due   time.Duration
	Act   Act
	Path  string // Open, Jump: the page; Patch: the page that must show the edit
	Doc   string // Patch: the document id; Swap: the family
	Value string // Patch: the new attribute value; Swap: the structure kind
	Pick  uint32 // Select: which member of the current hub
	N     int    // Storm: how many reloads
}

// Session is one visitor's (or the writer's) scheduled steps.
type Session struct {
	ID       int
	Returner int // index into the run's returning visitors; -1 for a new visitor
	Steps    []Step
}

// Mix is the relative weight of each navigation action after a
// visitor's first page.
type Mix struct {
	Next, Prev, Up, Select, Jump, Back, Forward, Reload, Storm int
}

func (m Mix) draw(rng *rand.Rand) Act {
	weights := [...]struct {
		w int
		a Act
	}{
		{m.Next, ActNext}, {m.Prev, ActPrev}, {m.Up, ActUp}, {m.Select, ActSelect},
		{m.Jump, ActJump}, {m.Back, ActBack}, {m.Forward, ActForward},
		{m.Reload, ActReload}, {m.Storm, ActStorm},
	}
	total := 0
	for _, w := range weights {
		total += w.w
	}
	n := rng.Intn(total)
	for _, w := range weights {
		if n < w.w {
			return w.a
		}
		n -= w.w
	}
	return ActReload
}

// Plan is everything a schedule is built from besides the site.
type Plan struct {
	Seed     int64
	Arrivals float64       // visitor sessions per second, a Poisson process
	Horizon  time.Duration // steps due at or after this are not scheduled
	Steps    int           // mean steps per visitor session
	Think    time.Duration // mean of the exponential think time between steps
	Mix      Mix
	// ReturnShare of arrivals are returning visitors, taken in order
	// from Returners prepared visitors until those run out.
	ReturnShare float64
	Returners   int
	// WriteEvery is the control-plane writer's period (0: no writer).
	// Three of every four writes PATCH one painting's technique; the
	// fourth swaps SwapFamily to the other of the two SwapKinds. Mostly
	// one kind of write keeps the median mutation time inside one
	// cluster instead of between two.
	WriteEvery time.Duration
	SwapFamily string
	SwapKinds  [2]string
}

// pickPage draws a page uniformly over the site's contexts: with entry,
// the context's entry page, else one of its members.
func pickPage(site *Site, rng *rand.Rand, entry bool) Entry {
	c := site.Contexts[rng.Intn(len(site.Contexts))]
	if entry {
		node := c.Entry
		if node == "" {
			node = c.Members[0]
		}
		return Entry{Context: c.Name, NodeID: node}
	}
	return Entry{Context: c.Name, NodeID: c.Members[rng.Intn(len(c.Members))]}
}

// visitor builds one visitor session's steps starting at arrival.
func (pl *Plan) visitor(site *Site, id int, arrival time.Duration, returner int) Session {
	rng := rand.New(rand.NewSource(pl.Seed*1_000_003 + int64(id)))
	s := Session{ID: id, Returner: returner}
	n := pl.Steps/2 + rng.Intn(pl.Steps+1)
	if n < 1 {
		n = 1
	}
	due := arrival
	for i := 0; i < n && due < pl.Horizon; i++ {
		st := Step{Due: due}
		switch {
		case i == 0 && returner >= 0:
			st.Act = ActResume
		case i == 0:
			st.Act, st.Path = ActOpen, PagePath(pickPage(site, rng, true))
		default:
			st.Act = pl.Mix.draw(rng)
		}
		switch st.Act {
		case ActJump:
			st.Path = PagePath(pickPage(site, rng, false))
		case ActSelect:
			st.Pick = rng.Uint32()
		case ActStorm:
			st.N = 2 + rng.Intn(4)
		}
		s.Steps = append(s.Steps, st)
		if pl.Think > 0 {
			due += time.Duration(min(rng.ExpFloat64(), 10) * float64(pl.Think))
		}
	}
	return s
}

// Schedule builds the open-loop schedule: visitor sessions arriving as
// a Poisson process over the horizon, plus the writer. The same plan
// and site always give the same schedule.
func (pl *Plan) Schedule(site *Site) []Session {
	rng := rand.New(rand.NewSource(pl.Seed))
	var out []Session
	returned := 0
	at := time.Duration(0)
	for id := 0; pl.Arrivals > 0; id++ {
		at += time.Duration(rng.ExpFloat64() / pl.Arrivals * float64(time.Second))
		if at >= pl.Horizon {
			break
		}
		ret := -1
		if returned < pl.Returners && rng.Float64() < pl.ReturnShare {
			ret = returned
			returned++
		}
		out = append(out, pl.visitor(site, id, at, ret))
	}
	if pl.WriteEvery > 0 {
		w := Session{ID: len(out), Returner: -1}
		for i, due := 0, pl.WriteEvery/2; due < pl.Horizon; i, due = i+1, due+pl.WriteEvery {
			if i%4 != 3 {
				e := pickPage(site, rng, false)
				w.Steps = append(w.Steps, Step{Due: due, Act: ActPatch, Path: PagePath(e), Doc: e.NodeID,
					Value: "bench-" + strconv.FormatInt(pl.Seed, 10) + "-" + strconv.Itoa(i)})
			} else {
				w.Steps = append(w.Steps, Step{Due: due, Act: ActSwap, Doc: pl.SwapFamily,
					Value: pl.SwapKinds[(i/4)%2]})
			}
		}
		out = append(out, w)
	}
	return out
}

// Visitors builds n new-visitor sessions with ids from first, all due
// at time zero: the closed-loop phases run them back to back.
func (pl *Plan) Visitors(site *Site, first, n int) []Session {
	closed := *pl
	closed.Think, closed.Horizon = 0, 1
	out := make([]Session, n)
	for i := range out {
		out[i] = closed.visitor(site, first+i, 0, -1)
	}
	return out
}
