// Benchmarks regenerating the performance-shaped experiments of
// internal/experiments (E1–E14; `navbench -list` names them).
// Qualitative artifacts (the figures' HTML/XML) are produced by
// cmd/navbench; these benches measure the mechanisms.
package navaspect_test

import (
	"fmt"
	"io"
	"net/http/httptest"
	"testing"

	"repro/internal/aspect"
	"repro/internal/core"
	"repro/internal/lift"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/server"
	"repro/internal/tangled"
	"repro/internal/xlink"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

func mustApp(b *testing.B, access navigation.AccessStructure) *core.App {
	b.Helper()
	app, err := core.NewApp(museum.PaperStore(), museum.Model(access))
	if err != nil {
		b.Fatal(err)
	}
	return app
}

func syntheticApp(b *testing.B, painters, paintings int) *core.App {
	b.Helper()
	store := museum.Synthetic(museum.SyntheticSpec{
		Painters: painters, PaintingsPerPainter: paintings, Movements: 4, Seed: 1,
	})
	app, err := core.NewApp(store, museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		b.Fatal(err)
	}
	return app
}

// BenchmarkE1AspectWeave measures one fully advised page production —
// the weaving step of Figure 1/Figure 6.
func BenchmarkE1AspectWeave(b *testing.B) {
	app := mustApp(b, navigation.IndexedGuidedTour{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := app.RenderPage("ByAuthor:picasso", "guitar"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2AccessStructures measures edge computation for the Figure 2
// topologies at several context sizes.
func BenchmarkE2AccessStructures(b *testing.B) {
	store := museum.Synthetic(museum.SyntheticSpec{Painters: 1, PaintingsPerPainter: 100, Seed: 3})
	rm, err := museum.Model(navigation.Index{}).Resolve(store)
	if err != nil {
		b.Fatal(err)
	}
	members := rm.Contexts[0].Members
	for _, tc := range []struct {
		name   string
		access navigation.AccessStructure
	}{
		{"Index", navigation.Index{}},
		{"GuidedTour", navigation.GuidedTour{}},
		{"IndexedGuidedTour", navigation.IndexedGuidedTour{}},
		{"Menu", navigation.Menu{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := tc.access.Edges(members); len(got) == 0 {
					b.Fatal("no edges")
				}
			}
		})
	}
}

// BenchmarkE4WeaveGuitarIndex regenerates the Figure 3 page.
func BenchmarkE4WeaveGuitarIndex(b *testing.B) {
	app := mustApp(b, navigation.Index{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := app.RenderPage("ByAuthor:picasso", "guitar"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5WeaveGuitarIGT regenerates the Figure 4 page.
func BenchmarkE5WeaveGuitarIGT(b *testing.B) {
	app := mustApp(b, navigation.IndexedGuidedTour{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := app.RenderPage("ByAuthor:picasso", "guitar"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7LinkbaseRoundTrip measures generating links.xml from the
// model and parsing the navigation back out of it (Figures 7–9 pipeline).
func BenchmarkE7LinkbaseRoundTrip(b *testing.B) {
	rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(museum.PaperStore())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc := navigation.GenerateLinkbase(rm)
		if _, err := navigation.ParseLinkbase(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8ChangeCost measures the change-cost analysis itself at the
// three smallest context sizes experiment e8 (`navbench -exp e8`)
// reports.
func BenchmarkE8ChangeCost(b *testing.B) {
	for _, n := range []int{3, 10, 50} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			store := museum.Synthetic(museum.SyntheticSpec{Painters: 1, PaintingsPerPainter: n, Seed: 11})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tangled.MeasureAccessChange(store, museum.Model, "ByAuthor",
					navigation.Index{}, navigation.IndexedGuidedTour{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9ContextResolution measures resolving the navigational model
// (grouping + ordering all context families) at growing store sizes.
func BenchmarkE9ContextResolution(b *testing.B) {
	for _, painters := range []int{5, 25, 100} {
		b.Run(fmt.Sprintf("painters=%d", painters), func(b *testing.B) {
			store := museum.Synthetic(museum.SyntheticSpec{
				Painters: painters, PaintingsPerPainter: 10, Movements: 5, Seed: 2,
			})
			model := museum.Model(navigation.IndexedGuidedTour{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := model.Resolve(store); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10WeaveThroughput measures static whole-site weaving vs
// request-time page weaving, sequential and with the bounded worker
// pool (the ≥2× tentpole speedup shows in workers=4/8 vs workers=1).
func BenchmarkE10WeaveThroughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("static-site-120pages/workers=%d", workers), func(b *testing.B) {
			app := syntheticApp(b, 10, 10)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				site, err := app.WeaveSiteWorkers(workers)
				if err != nil {
					b.Fatal(err)
				}
				if site.Len() == 0 {
					b.Fatal("empty site")
				}
			}
		})
	}
	b.Run("dynamic-single-page", func(b *testing.B) {
		app := syntheticApp(b, 10, 10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := app.RenderPage("ByAuthor:painter000", "painting000_005"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE14CachedServe measures the request-time serving path with
// and without the woven-page cache — the ≥10× cached-serve claim.
func BenchmarkE14CachedServe(b *testing.B) {
	b.Run("uncached-render", func(b *testing.B) {
		app := syntheticApp(b, 10, 10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := app.RenderPage("ByAuthor:painter000", "painting000_005"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-render", func(b *testing.B) {
		app := syntheticApp(b, 10, 10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := app.RenderPageCached("ByAuthor:painter000", "painting000_005"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-render-parallel", func(b *testing.B) {
		app := syntheticApp(b, 10, 10)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := app.RenderPageCached("ByAuthor:painter000", "painting000_005"); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkE14ConcurrentHTTP measures the full HTTP serving path under
// concurrent clients, cached vs per-request weaving.
func BenchmarkE14ConcurrentHTTP(b *testing.B) {
	run := func(b *testing.B, opts ...server.Option) {
		app := syntheticApp(b, 10, 10)
		ts := httptest.NewServer(server.New(app, opts...))
		defer ts.Close()
		url := ts.URL + "/ByAuthor/painter000/painting000_005.html"
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			client := ts.Client()
			for pb.Next() {
				resp, err := client.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		})
	}
	b.Run("cached", func(b *testing.B) { run(b) })
	b.Run("uncached", func(b *testing.B) { run(b, server.WithoutPageCache()) })
}

// BenchmarkE11AdviceOverhead is the ablation: the cost of the interface-
// based AOP simulation per join point, against a direct call.
func BenchmarkE11AdviceOverhead(b *testing.B) {
	body := func(*aspect.JoinPoint) (any, error) { return 42, nil }
	jp := &aspect.JoinPoint{Kind: "op", Name: "x"}
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := body(jp); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, advices := range []int{0, 1, 4, 16} {
		b.Run(fmt.Sprintf("woven-%dadvice", advices), func(b *testing.B) {
			w := aspect.NewWeaver()
			a := aspect.NewAspect("bench")
			pc := aspect.MustCompilePointcut("kind(op)")
			for i := 0; i < advices; i++ {
				a.AroundAdvice(fmt.Sprintf("a%d", i), pc, i, func(inv *aspect.Invocation) (any, error) {
					return inv.Proceed()
				})
			}
			w.Use(a)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.Execute(jp, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12XLinkResolve measures arc queries against growing
// linkbases, the cost of externalizing links into links.xml.
func BenchmarkE12XLinkResolve(b *testing.B) {
	for _, painters := range []int{5, 25, 100} {
		b.Run(fmt.Sprintf("painters=%d", painters), func(b *testing.B) {
			store := museum.Synthetic(museum.SyntheticSpec{
				Painters: painters, PaintingsPerPainter: 10, Seed: 4,
			})
			rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(store)
			if err != nil {
				b.Fatal(err)
			}
			lb := xlink.NewLinkbase()
			if err := lb.AddDocument(navigation.GenerateLinkbase(rm)); err != nil {
				b.Fatal(err)
			}
			ref := xlink.Ref{URI: "painting000_005.xml"}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = lb.ArcsFromRef(ref)
			}
		})
	}
	b.Run("xpath-eval", func(b *testing.B) {
		doc := xmldom.MustParseString(
			`<museum><painter id="p"><painting year="1913"><title>Guitar</title></painting></painter></museum>`)
		expr := xpath.MustCompile("//painting[@year>1900]/title")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := expr.Select(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTangledVsWoven compares producing the whole site by
// direct tangled generation against the aspect-woven pipeline — the cost
// of the separation machinery itself (DESIGN.md §7).
func BenchmarkAblationTangledVsWoven(b *testing.B) {
	store := museum.Synthetic(museum.SyntheticSpec{
		Painters: 5, PaintingsPerPainter: 10, Movements: 3, Seed: 6,
	})
	rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(store)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tangled-generation", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if site := tangled.GenerateSite(rm); len(site) == 0 {
				b.Fatal("empty site")
			}
		}
	})
	b.Run("aspect-woven", func(b *testing.B) {
		app, err := core.NewApp(store, museum.Model(navigation.IndexedGuidedTour{}))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			site, err := app.WeaveSite()
			if err != nil {
				b.Fatal(err)
			}
			if site.Len() == 0 {
				b.Fatal("empty site")
			}
		}
	})
}

// BenchmarkAblationLift measures the tangled-to-separated migration.
func BenchmarkAblationLift(b *testing.B) {
	rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(museum.PaperStore())
	if err != nil {
		b.Fatal(err)
	}
	site := tangled.GenerateSite(rm)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lift.Site(site); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13Classify measures link classification over a mixed corpus.
func BenchmarkE13Classify(b *testing.B) {
	items := make([]string, 200)
	for i := range items {
		items[i] = fmt.Sprintf("result%03d", i)
	}
	_, pageEdges, err := navigation.Paginate(items, 10)
	if err != nil {
		b.Fatal(err)
	}
	rm, err := museum.Model(navigation.IndexedGuidedTour{}).Resolve(museum.PaperStore())
	if err != nil {
		b.Fatal(err)
	}
	edges := append(rm.Contexts[0].Edges(), pageEdges...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := navigation.ClassifyAll(edges)
		if r.Scrolling == 0 {
			b.Fatal("no scrolling edges")
		}
	}
}
