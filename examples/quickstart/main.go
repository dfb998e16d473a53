// Quickstart: the smallest complete use of the navaspect public API.
//
// It declares a three-painting gallery, weaves it with an Index access
// structure, prints one woven page, then swaps the access structure to an
// Indexed Guided Tour with a single call — the paper's motivating change —
// and prints the same page again to show the navigation that appeared.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	navaspect "repro"
)

func main() {
	// 1. The conceptual model: pure data, no links (paper §5 step 1).
	schema := navaspect.NewSchema()
	schema.MustAddClass(navaspect.NewClass("Painter",
		navaspect.AttrDef{Name: "name", Type: navaspect.StringAttr, Required: true},
	))
	schema.MustAddClass(navaspect.NewClass("Painting",
		navaspect.AttrDef{Name: "title", Type: navaspect.StringAttr, Required: true},
		navaspect.AttrDef{Name: "year", Type: navaspect.IntAttr},
	))
	schema.MustAddRelationship(&navaspect.Relationship{
		Name: "paints", Source: "Painter", Target: "Painting", Card: navaspect.OneToMany,
	})

	store := navaspect.NewStore(schema)
	store.MustAdd("Painter", "picasso", map[string]string{"name": "Pablo Picasso"})
	store.MustAdd("Painting", "avignon", map[string]string{"title": "Les Demoiselles d'Avignon", "year": "1907"})
	store.MustAdd("Painting", "guitar", map[string]string{"title": "Guitar", "year": "1913"})
	store.MustAdd("Painting", "guernica", map[string]string{"title": "Guernica", "year": "1937"})
	store.MustLink("paints", "picasso", "avignon")
	store.MustLink("paints", "picasso", "guitar")
	store.MustLink("paints", "picasso", "guernica")

	// 2. The navigational aspect, declared separately (§5 step 2).
	model := navaspect.NewModel()
	model.MustAddNodeClass(&navaspect.NodeClass{
		Name: "PaintingNode", Class: "Painting", TitleAttr: "title",
	})
	model.MustAddContext(&navaspect.ContextDef{
		Name: "ByAuthor", NodeClass: "PaintingNode",
		GroupBy: "paints", OrderBy: "year",
		Access: navaspect.Index{},
	})

	// 3. Weave (§5 steps 3-4: join points + composition).
	app, err := navaspect.New(store, model)
	if err != nil {
		log.Fatal(err)
	}

	page, err := app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Guitar page with Index (the paper's Figure 3) ===")
	fmt.Println(page.HTML)

	// 4. The requirements change: one declaration swap, zero page edits.
	swap := map[string]navaspect.AccessStructure{"ByAuthor": navaspect.IndexedGuidedTour{}}
	if _, err := app.SetAccessStructures(swap); err != nil {
		log.Fatal(err)
	}
	page, err = app.RenderPage("ByAuthor:picasso", "guitar")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Guitar page with Indexed Guided Tour (Figure 4) ===")
	fmt.Println(page.HTML)

	// The separated navigation lives in links.xml, not in the pages.
	fmt.Println("=== links.xml (excerpt, Figure 9) ===")
	lb := app.Linkbase().IndentedString()
	if len(lb) > 800 {
		lb = lb[:800] + "\n...\n"
	}
	fmt.Println(lb)
}
