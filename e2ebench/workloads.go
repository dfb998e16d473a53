package main

import (
	"time"

	"repro/e2ebench/loadgen"
	"repro/internal/load"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// serverArgs are the navserve flags beyond the ones every run
	// passes (address, token, file store, -trace=false,
	// -adapt-interval 0).
	serverArgs []string
	// pageP99Limit is the latency limit on the all-sample page p99 at the
	// workload's offered rate; the meta line reports whether it held.
	pageP99Limit float64
	// returners is how many visitor sessions the first server instance
	// writes before it is killed.
	returners int
	// plan.Arrivals fixes the offered rate, well under the peak_rps the
	// closed-loop phase measures: latency is measured with headroom, not
	// in a saturated queue, and stays steady between runs on a small
	// host that runs generator and server side by side.
	plan loadgen.Plan
}

// mixOf converts the load harness's action mix, so museum-browse walks
// the same way navload's visitors do.
func mixOf(m load.Mix) loadgen.Mix {
	return loadgen.Mix{Next: m.Next, Prev: m.Prev, Up: m.Up, Select: m.Select, Jump: m.Jump,
		Back: m.Back, Forward: m.Forward, Reload: m.Reload, Storm: m.Storm}
}

// Every workload carries a control-plane writer and returning visitors,
// because every run reports mutate_p50_ms and resume_p50_ms;
// durable-resume weights the returns.
var workloads = map[string]workload{
	"museum-browse": {
		name:         "museum-browse",
		pageP99Limit: 20,
		returners:    900,
		plan: loadgen.Plan{
			Arrivals: 75, Steps: 20, Think: 300 * time.Millisecond, Mix: mixOf(load.DefaultMix),
			ReturnShare: 0.4, WriteEvery: 125 * time.Millisecond,
			SwapFamily: "ByMovement", SwapKinds: [2]string{"index", "indexed-guided-tour"},
		},
	},
	"durable-resume": {
		name:         "durable-resume",
		serverArgs:   []string{"-sync-persist"},
		pageP99Limit: 20,
		returners:    1200,
		plan: loadgen.Plan{
			Arrivals: 80, Steps: 16, Think: 300 * time.Millisecond,
			Mix:         loadgen.Mix{Next: 35, Prev: 15, Up: 5, Select: 10, Jump: 5, Back: 20, Forward: 8, Reload: 2},
			ReturnShare: 0.5, WriteEvery: 100 * time.Millisecond,
			SwapFamily: "ByMovement", SwapKinds: [2]string{"index", "indexed-guided-tour"},
		},
	},
}
