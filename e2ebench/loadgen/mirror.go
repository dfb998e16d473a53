package loadgen

// mirror is the generator's own model of Brewster and Jeffrey's
// history list: a list with a cursor, truncated on every new
// navigation, untouched by a reload of the current position. It is
// written against the model, not against the server's code, so a
// /go/back or /go/forward redirect that disagrees with it is a
// correctness violation of the server.
//
// Sessions in a run take far fewer steps than the server's default
// trail limit (1024), so the mirror does not model front trimming.
type mirror struct {
	nav []Entry
	cur int
}

func (m *mirror) navigate(e Entry) {
	if len(m.nav) > 0 && m.nav[m.cur] == e {
		return
	}
	if len(m.nav) > 0 {
		m.nav = m.nav[:m.cur+1]
	}
	m.nav = append(m.nav, e)
	m.cur = len(m.nav) - 1
}

func (m *mirror) canBack() bool    { return len(m.nav) > 0 && m.cur > 0 }
func (m *mirror) canForward() bool { return m.cur < len(m.nav)-1 }

func (m *mirror) current() (Entry, bool) {
	if len(m.nav) == 0 {
		return Entry{}, false
	}
	return m.nav[m.cur], true
}
