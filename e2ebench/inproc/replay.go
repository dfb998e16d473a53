package inproc

import (
	"encoding/json"
	"runtime"
	"time"

	"repro/e2ebench/loadgen"
	"repro/internal/core"
	"repro/internal/navigation"
)

// Replay is the cost of the layers below the handler, timed through
// their public functions on the inputs the traced run recorded.
type Replay struct {
	WeaveUS     float64 // core.App.RenderPage: one uncached weave
	WeaveAllocs float64 // heap allocations per weave
	HitRenderNS float64 // core.App.RenderPageCachedStat on a cached page
	StepNS      float64 // one navigation.Session operation
	EncodeUS    float64 // Session.State plus its JSON encoding
	RestoreUS   float64 // JSON decoding plus navigation.RestoreSession
}

// minReplay is how long each replayed layer is timed at least.
const minReplay = 200 * time.Millisecond

// RunReplay times each layer on the recorded visitors' pages and
// navigation calls.
func RunReplay(app *core.App, visitors []loadgen.Visitor) Replay {
	var out Replay
	seen := map[loadgen.Entry]bool{}
	var pages []loadgen.Entry
	for _, v := range visitors {
		for _, op := range v.Ops {
			if op.Kind == "enter" && !seen[op.At] {
				seen[op.At] = true
				pages = append(pages, op.At)
			}
		}
	}
	if len(pages) == 0 {
		return out
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	n, d := repeat(func() int {
		for _, p := range pages {
			_, _ = app.RenderPage(p.Context, p.NodeID)
		}
		return len(pages)
	})
	runtime.ReadMemStats(&ms1)
	out.WeaveUS = perOp(d, n) / 1e3
	out.WeaveAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)

	for _, p := range pages {
		_, _, _ = app.RenderPageCachedStat(p.Context, p.NodeID)
	}
	n, d = repeat(func() int {
		for _, p := range pages {
			_, _, _ = app.RenderPageCachedStat(p.Context, p.NodeID)
		}
		return len(pages)
	})
	out.HitRenderNS = perOp(d, n)

	var sessions []*navigation.Session
	n, d = repeat(func() int {
		sessions = sessions[:0]
		ops := 0
		for _, v := range visitors {
			s := navigation.NewSession(app.Resolved())
			for _, op := range v.Ops {
				_ = apply(s, op)
			}
			ops += len(v.Ops)
			sessions = append(sessions, s)
		}
		return ops
	})
	out.StepNS = perOp(d, n)

	var raws [][]byte
	n, d = repeat(func() int {
		raws = raws[:0]
		for _, s := range sessions {
			raw, err := json.Marshal(s.State())
			if err == nil {
				raws = append(raws, raw)
			}
		}
		return len(sessions)
	})
	out.EncodeUS = perOp(d, n) / 1e3

	n, d = repeat(func() int {
		for _, raw := range raws {
			var st navigation.SessionState
			if json.Unmarshal(raw, &st) == nil {
				_, _ = navigation.RestoreSession(app.Resolved(), st)
			}
		}
		return len(raws)
	})
	out.RestoreUS = perOp(d, n) / 1e3
	return out
}

// repeat runs pass until it has run for minReplay, returning the
// operations it did and the time they took.
func repeat(pass func() int) (int, time.Duration) {
	start := time.Now()
	n := 0
	for time.Since(start) < minReplay {
		n += pass()
	}
	return n, time.Since(start)
}

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// apply performs one recorded server-side navigation call.
func apply(s *navigation.Session, op loadgen.Op) error {
	switch op.Kind {
	case "enter":
		return s.EnterContext(op.At.Context, op.At.NodeID)
	case "next":
		return s.Next()
	case "prev":
		return s.Prev()
	case "up":
		return s.Up()
	case "select":
		return s.Select(op.At.NodeID)
	case "back":
		return s.Back()
	case "forward":
		return s.Forward()
	}
	return nil
}
