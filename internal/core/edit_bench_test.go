package core

import (
	"testing"

	"repro/internal/navigation"
)

// Per-path costs of the mutation plane, and of the weave a mutation's
// invalidation hands to the next request. Each iteration alternates
// between two values so every edit changes the document.

// BenchmarkEditDocumentContent: a caption edit navigation does not
// read — the content-only path re-exports one document.
func BenchmarkEditDocumentContent(b *testing.B) {
	benchmarkEdit(b, "technique", "Construction", "Sheet metal and wire")
}

// BenchmarkEditDocumentTitle: a title edit reaches the linkbase — the
// full rebuild.
func BenchmarkEditDocumentTitle(b *testing.B) {
	benchmarkEdit(b, "title", "Guitar", "Guitar (1913)")
}

func benchmarkEdit(b *testing.B, attr, v0, v1 string) {
	app := paperApp(b, navigation.IndexedGuidedTour{})
	sets := [2]map[string]string{{attr: v1}, {attr: v0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.EditDocument("guitar", sets[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetAccessStructure: the paper's §5 change, one family's
// Index ↔ Indexed Guided Tour swap (a full rebuild).
func BenchmarkSetAccessStructure(b *testing.B) {
	app := paperApp(b, navigation.IndexedGuidedTour{})
	structures := [2]navigation.AccessStructure{navigation.Index{}, navigation.IndexedGuidedTour{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := app.SetAccessStructure("ByMovement", structures[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderPageUncached: one member-page weave, bypassing the
// page cache.
func BenchmarkRenderPageUncached(b *testing.B) {
	app := paperApp(b, navigation.IndexedGuidedTour{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.RenderPage("ByMovement:cubism", "guitar"); err != nil {
			b.Fatal(err)
		}
	}
}
