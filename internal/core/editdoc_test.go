package core

import (
	"bytes"
	"sort"
	"strconv"
	"testing"

	"repro/internal/conceptual"
	"repro/internal/museum"
	"repro/internal/navigation"
)

// editModel builds one navigational model of the differential test over
// the paper museum, and names the attributes (class.attr) the model
// navigates by — the edits that must take the full rebuild.
type editModel struct {
	name         string
	build        func() *navigation.Model
	navigational map[string]bool
}

// paperNavigational are the attributes museum.Model reads: painting
// titles (ByMovement's order too), painting years (ByAuthor's order)
// and painter names (PainterNode's title).
var paperNavigational = map[string]bool{"Painting.title": true, "Painting.year": true, "Painter.name": true}

func editModels() []editModel {
	withWhere := func(where string) func() *navigation.Model {
		return func() *navigation.Model {
			m := museum.Model(navigation.IndexedGuidedTour{})
			// An ungrouped, filtered landmark whose hub embeds its
			// members (a gallery wall): membership follows the Where,
			// and the hub page depends on every member's document.
			m.MustAddContext(&navigation.ContextDef{
				Name: "Selection", NodeClass: "PaintingNode",
				Where: where, Access: navigation.Index{}, Show: "embed",
			})
			m.MustAddLandmark("Selection")
			return m
		}
	}
	withTechnique := map[string]bool{"Painting.technique": true}
	for k := range paperNavigational {
		withTechnique[k] = true
	}
	return []editModel{
		{"paper", func() *navigation.Model { return museum.Model(navigation.IndexedGuidedTour{}) }, paperNavigational},
		{"where-year", withWhere("year >= 1910"), paperNavigational},
		{"where-technique", withWhere("technique = 'Oil on canvas'"), withTechnique},
	}
}

// editedValue returns a new value for an attribute: integers cross the
// 1910 threshold (and reorder), strings change in place.
func editedValue(def conceptual.AttrDef, old string) string {
	if def.Type == conceptual.IntAttr {
		if n, _ := strconv.Atoi(old); n < 1910 {
			return "1950"
		}
		return "1850"
	}
	return old + " (rev.)"
}

// allPages lists every (context, node) page of the app's current model.
func allPages(app *App) [][2]string {
	var out [][2]string
	for _, rc := range app.Resolved().Contexts {
		if rc.Def.Access.HasHub() {
			out = append(out, [2]string{rc.Name, navigation.HubID})
		}
		for _, m := range rc.Members {
			out = append(out, [2]string{rc.Name, m.ID()})
		}
	}
	return out
}

// warmAll weaves every page into the cache.
func warmAll(t *testing.T, app *App) {
	t.Helper()
	for _, p := range allPages(app) {
		if _, err := app.RenderPageCached(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// fullRebuildEdit is the reference: the edit applied to the store and
// the whole model re-derived, as every document edit did before the
// content-only path existed.
func fullRebuildEdit(t *testing.T, app *App, id string, set map[string]string) int {
	t.Helper()
	app.mu.Lock()
	defer app.mu.Unlock()
	if err := app.store.SetAttrs(id, set); err != nil {
		t.Fatal(err)
	}
	dropped, _, err := app.rebuild()
	if err != nil {
		t.Fatal(err)
	}
	return dropped
}

// assertTwins fails unless both apps serve identical documents (bytes
// and validators), cache the same number of pages, and weave identical
// pages.
func assertTwins(t *testing.T, step string, got, want *App) {
	t.Helper()
	if g, w := got.CachedPages(), want.CachedPages(); g != w {
		t.Errorf("%s: CachedPages = %d, full rebuild %d", step, g, w)
	}
	uris := make([]string, 0, len(want.Repository()))
	for uri := range want.Repository() {
		uris = append(uris, uri)
	}
	sort.Strings(uris)
	if g, w := len(got.Repository()), len(uris); g != w {
		t.Errorf("%s: repository holds %d documents, full rebuild %d", step, g, w)
	}
	for _, uri := range uris {
		gb, ge, _, gerr := got.DocBytes(uri)
		wb, we, _, werr := want.DocBytes(uri)
		if gerr != nil || werr != nil {
			t.Fatalf("%s: DocBytes(%s): %v / %v", step, uri, gerr, werr)
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: %s body differs from the full rebuild's:\n%s\nwant:\n%s", step, uri, gb, wb)
		}
		if ge != we {
			t.Errorf("%s: %s ETag = %s, full rebuild %s", step, uri, ge, we)
		}
	}
	gp, wp := allPages(got), allPages(want)
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d pages, full rebuild %d", step, len(gp), len(wp))
	}
	for i, p := range wp {
		if gp[i] != p {
			t.Fatalf("%s: page %d is %v, full rebuild %v", step, i, gp[i], p)
		}
		g, err := got.RenderPageCached(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.RenderPageCached(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Body, w.Body) {
			t.Errorf("%s: page %s/%s differs from the full rebuild's:\n%s\nwant:\n%s", step, p[0], p[1], g.Body, w.Body)
		}
	}
}

// TestEditDocumentMatchesFullRebuild is the differential test of the
// content-only edit path: for every instance × attribute of the paper
// museum, under models whose Where filters read different attributes,
// EditDocument on one app and a forced full rebuild on a twin must
// leave identical documents, validators, blast radii, caches and woven
// pages — and only edits to attributes the model navigates by may take
// the full path (observable as a new resolved model).
func TestEditDocumentMatchesFullRebuild(t *testing.T) {
	for _, em := range editModels() {
		t.Run(em.name, func(t *testing.T) {
			app, err := NewApp(museum.PaperStore(), em.build())
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewApp(museum.PaperStore(), em.build())
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range app.Store().Instances() {
				class := app.Store().Schema().Class(inst.Class)
				for _, def := range class.Attrs {
					set := map[string]string{def.Name: editedValue(def, inst.Attr(def.Name))}
					step := inst.ID + "." + def.Name
					// Apply the edit, then re-apply it: the second is a
					// no-op both ways.
					for _, s := range []string{step, step + " (again)"} {
						warmAll(t, app)
						warmAll(t, twin)
						before := app.Resolved()
						dropped, err := app.EditDocument(inst.ID, set)
						if err != nil {
							t.Fatalf("%s: EditDocument: %v", s, err)
						}
						if want := fullRebuildEdit(t, twin, inst.ID, set); dropped != want {
							t.Errorf("%s: dropped %d pages, full rebuild %d", s, dropped, want)
						}
						fullPath := app.Resolved() != before
						if wantFull := em.navigational[inst.Class+"."+def.Name] && s == step; fullPath != wantFull {
							t.Errorf("%s: took the full path = %v, want %v", s, fullPath, wantFull)
						}
						assertTwins(t, s, app, twin)
					}
				}
			}
		})
	}
}
