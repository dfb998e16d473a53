package obs

import "time"

// MutationEvent is one rebuild trace record: what changed the woven
// model, how long the rebuild took, and the invalidation blast radius
// the diff computed. The ring of recent events is the runtime
// counterpart of the paper's inspectable navigation spec — not just
// that the model changed, but what each change cost.
type MutationEvent struct {
	// Seq numbers events monotonically from process start; the ring
	// drops old events but never renumbers.
	Seq uint64 `json:"seq"`
	// Time is when the mutation completed.
	Time time.Time `json:"time"`
	// Kind is the mutation entry point: "structure-swap", "document",
	// "stylesheet".
	Kind string `json:"kind"`
	// Target names what was mutated: family names for a structure swap,
	// the document URI, "stylesheet".
	Target string `json:"target,omitempty"`
	// Duration is how long the rebuild (validate, weave, diff,
	// invalidate) took.
	Duration time.Duration `json:"duration_ns"`
	// PagesInvalidated is how many cached pages the diff dropped.
	PagesInvalidated int `json:"pages_invalidated"`
	// Verdict is the diff's conclusion: "full" (everything dropped),
	// "local" (family- or document-scoped drop) or "none".
	Verdict string `json:"verdict,omitempty"`
	// CacheGeneration is the page-cache generation after the mutation.
	CacheGeneration uint64 `json:"cache_generation"`
}

// withSeq returns the record stamped with its Ring sequence number.
func (e MutationEvent) withSeq(seq uint64) MutationEvent {
	e.Seq = seq
	return e
}
