// Adaptive navigation: derive the access structure from traffic
// instead of authoring it. The museum opens with the paper's
// hand-declared indexed guided tour (ordered by year), simulated
// visitors walk their own dominant path through the Picasso rooms, and
// the analytics pipeline — recorder, transition graph, derivation —
// compiles their behaviour into an adaptive tour that is swapped in
// through the same SetAccessStructures call the paper's §5 change
// scenario uses. Navigation is so separate from the conceptual model
// that the linkbase can be rewritten from telemetry while nothing else
// moves.
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	navaspect "repro"
	"repro/internal/analytics"
	"repro/internal/museum"
	"repro/internal/navigation"
)

func main() {
	app, err := navaspect.New(museum.PaperStore(), museum.Model(navaspect.IndexedGuidedTour{}))
	if err != nil {
		log.Fatal(err)
	}
	const ctx = "ByAuthor:picasso"

	fmt.Println("== authored structure (indexed guided tour, ordered by year)")
	printTour(app, ctx)

	// Simulate a season of museum traffic. The curators ordered the
	// rooms by year (avignon 1907, guitar 1913, guernica 1937), but
	// most visitors come for Guernica first and wander backwards — and
	// nobody who starts elsewhere skips Guitar.
	rec := analytics.NewRecorder(analytics.RecorderConfig{})
	for v := 0; v < 60; v++ { // the dominant trail
		rec.Record(ctx, analytics.EntryFrom, "guernica")
		rec.Record(ctx, "guernica", "avignon")
		rec.Record(ctx, "avignon", "guitar")
	}
	for v := 0; v < 15; v++ { // a minority tours by year
		rec.Record(ctx, analytics.EntryFrom, "avignon")
		rec.Record(ctx, "avignon", "guitar")
		rec.Record(ctx, "guitar", "guernica")
	}
	for v := 0; v < 30; v++ { // and the Guitar draws direct visits
		rec.Record(ctx, analytics.EntryFrom, "guitar")
	}
	st := rec.Stats()
	fmt.Printf("\n== recorded %d hops (0 allocations, ~40ns each)\n", st.Recorded)

	// Fold the hops into a transition graph and look at what it learned.
	g := analytics.BuildGraph(rec.Snapshot())
	cg := g.Contexts[ctx]
	fmt.Printf("top entries: %v\n", cg.TopEntries(3))
	fmt.Printf("top edges:   %v\n", cg.TopEdges(3))

	// Compile the graph into access structures and swap them live. The
	// dependency-aware page cache re-weaves only the contexts whose
	// edges changed.
	cfg := analytics.Config{MinHops: 10, LandmarkShare: 0.35}
	tours := analytics.Derive(g, analytics.Infos(app.Resolved()), cfg)
	swaps := make(map[string]navigation.AccessStructure, len(tours))
	for family, tour := range tours {
		plan := tour.Plans[ctx]
		fmt.Printf("\n== derived adaptive tour for %s\n", family)
		fmt.Printf("order:     %v\n", plan.Order)
		fmt.Printf("landmarks: %v (visit share over %.0f%%)\n", plan.Landmarks, 100*cfg.LandmarkShare)
		swaps[family] = tour
	}
	if _, err := app.SetAccessStructures(swaps); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== woven structure after adaptation")
	printTour(app, ctx)
}

// printTour walks the context's Next chain from its first member and
// shows the hub roll order.
func printTour(app *navaspect.App, ctx string) {
	rc := app.Resolved().Context(ctx)
	var order []string
	for _, e := range rc.Edges() {
		if e.From == navigation.HubID && e.Kind == navigation.EdgeMember {
			order = append(order, e.To)
		}
	}
	fmt.Printf("hub roll: %v\n", order)
	if len(order) == 0 {
		return
	}
	trail := []string{order[0]}
	for n := rc.Next(order[0]); n != nil && len(trail) < len(order); n = rc.Next(n.ID()) {
		trail = append(trail, n.ID())
	}
	fmt.Printf("tour:     %v\n", trail)
}
