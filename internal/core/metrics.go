package core

import (
	"time"

	"repro/internal/obs"
)

// Package-level instrumentation for the weave/cache layer. Counters are
// registered once in the default registry; the record calls on the
// serve path are zero-alloc atomic adds (see internal/obs).
var (
	cacheHits = obs.Default.Counter("navcore_page_cache_hits_total",
		"Woven-page cache lookups served from cache.")
	cacheMisses = obs.Default.Counter("navcore_page_cache_misses_total",
		"Woven-page cache lookups that led a fresh weave.")
	cacheJoins = obs.Default.Counter("navcore_page_cache_joins_total",
		"Woven-page cache lookups coalesced onto another caller's in-flight weave.")

	rebuildDuration = obs.Default.Histogram("navcore_rebuild_duration_seconds",
		"Time one model rebuild took: resolve, export, linkbase, diff, invalidate (a content-only document edit: re-export one document, invalidate).")
	rebuildsByVerdict = map[string]*obs.Counter{
		verdictFull:  obs.Default.Counter("navcore_rebuilds_total", "Model rebuilds by invalidation verdict.", "verdict", verdictFull),
		verdictLocal: obs.Default.Counter("navcore_rebuilds_total", "Model rebuilds by invalidation verdict.", "verdict", verdictLocal),
		verdictNone:  obs.Default.Counter("navcore_rebuilds_total", "Model rebuilds by invalidation verdict.", "verdict", verdictNone),
	}
	pagesInvalidated = obs.Default.Counter("navcore_pages_invalidated_total",
		"Cached pages dropped by mutations, summed over their blast radii.")
)

// Invalidation verdicts: what a mutation's dependency diff concluded.
const (
	verdictFull  = "full"
	verdictLocal = "local"
	verdictNone  = "none"
)

// eventRingCapacity bounds the mutation-trace ring; 256 recent
// mutations is hours of control-plane history at realistic rates.
const eventRingCapacity = 256

// Events returns the app's mutation-trace ring: one record per model
// mutation with its duration, diff verdict and invalidation blast
// radius. The server's /api/v1/events reads it.
func (app *App) Events() *obs.Ring[obs.MutationEvent] { return app.events }

// recordMutation appends one mutation event to the trace ring and rolls
// its blast radius into the invalidation counter. Called on the
// control-plane (mutation) path only — never on a serve path — so the
// clock reads and the ring's mutex are fine here.
func (app *App) recordMutation(kind, target string, start time.Time, dropped int, verdict string) {
	pagesInvalidated.Add(uint64(dropped))
	app.events.Record(obs.MutationEvent{
		Time:             time.Now(),
		Kind:             kind,
		Target:           target,
		Duration:         time.Since(start),
		PagesInvalidated: dropped,
		Verdict:          verdict,
		CacheGeneration:  app.cache.generation(),
	})
}
