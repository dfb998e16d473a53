package core

import (
	"testing"

	"repro/internal/navigation"
)

// Allocation budgets for the //repro:hotpath functions this package
// exports to the serve path. A cache hit returns shared precomputed
// state — the page pointer, the document bytes with their ETag and
// Content-Length — so both lookups stay allocation-free; navlint's
// hotpath analyzer enforces the same statically.
func TestRenderPageCachedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	app := paperApp(t, navigation.GuidedTour{})
	if _, _, err := app.RenderPageCachedStat("ByAuthor:picasso", "guitar"); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, err := app.RenderPageCachedStat("ByAuthor:picasso", "guitar"); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("cached render = %.2f allocs/op, want 0", avg)
	}
}

func TestDocBytesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	app := paperApp(t, navigation.Index{})
	if _, _, _, err := app.DocBytes("links.xml"); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, _, err := app.DocBytes("links.xml"); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("doc lookup = %.2f allocs/op, want 0", avg)
	}
}

// TestRenderPageAllocs bounds one uncached member-page weave — the
// cost every cache miss pays. The HTML escapers are built once per
// process; rebuilding a strings.Replacer per escaped string cost ~150
// more allocations (and ~140 KB) per page.
func TestRenderPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	app := paperApp(t, navigation.IndexedGuidedTour{})
	const budget = 140
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := app.RenderPage("ByMovement:cubism", "guitar"); err != nil {
			t.Fatal(err)
		}
	}); avg > budget {
		t.Errorf("uncached weave = %.0f allocs/op, want <= %d", avg, budget)
	}
}
