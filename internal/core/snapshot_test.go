package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/museum"
	"repro/internal/navigation"
	"repro/internal/storage"
)

func paperApp(t *testing.T) *core.App {
	t.Helper()
	app, err := core.NewApp(museum.PaperStore(), museum.Model(navigation.IndexedGuidedTour{}))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestSnapshotRoundTripFileBackend is the linkbase export→reload round
// trip through the file backend: one process exports its woven site
// definition, a second process (a fresh store handle on the same
// directory) reloads it and sees the identical navigational aspect.
func TestSnapshotRoundTripFileBackend(t *testing.T) {
	dir := t.TempDir()
	app := paperApp(t)

	st, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Second process": nothing shared but the directory.
	st2, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()

	repo, err := core.LoadSnapshotRepository(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repo.URIs(), app.Repository().URIs()) {
		t.Errorf("reloaded URIs = %v, want %v", repo.URIs(), app.Repository().URIs())
	}
	// Every reloaded data document must serialize identically to the
	// original — the snapshot carries the documents, not approximations.
	for _, uri := range repo.URIs() {
		orig, _ := app.Repository().Get(uri)
		loaded, _ := repo.Get(uri)
		if orig.IndentedString() != loaded.IndentedString() {
			t.Errorf("document %s changed across the round trip", uri)
		}
	}

	// The navigational aspect itself survives: contexts parsed from the
	// reloaded links.xml match those parsed from the live one.
	want, err := navigation.ParseLinkbase(app.Linkbase())
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.LoadSnapshotContexts(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reloaded contexts differ:\n got %+v\nwant %+v", got, want)
	}

	// The generation stamp rode along.
	gen, err := st2.Generation()
	if err != nil {
		t.Fatal(err)
	}
	if gen != app.CacheGeneration() {
		t.Errorf("snapshot generation = %d, app = %d", gen, app.CacheGeneration())
	}

	// And the data documents really are conceptual instances: they
	// import back into a fresh store under the same schema.
	fresh := conceptual.NewStore(museum.Schema())
	for _, uri := range repo.URIs() {
		if uri == "links.xml" {
			continue
		}
		doc, _ := repo.Get(uri)
		inst, err := conceptual.ImportInstance(fresh, doc)
		if err != nil {
			t.Fatalf("re-importing %s: %v", uri, err)
		}
		orig := app.Store().Get(inst.ID)
		if orig == nil {
			t.Fatalf("imported unknown instance %q", inst.ID)
		}
		for _, attr := range orig.AttrNames() {
			if inst.Attr(attr) != orig.Attr(attr) {
				t.Errorf("%s.%s = %q, want %q", inst.ID, attr, inst.Attr(attr), orig.Attr(attr))
			}
		}
	}
	if fresh.Len() != app.Store().Len() {
		t.Errorf("imported %d instances, want %d", fresh.Len(), app.Store().Len())
	}
}

// TestSnapshotTracksModelMutation: re-exporting after a requirements
// change replaces the stored site definition — stale documents go away
// and the new linkbase lands.
func TestSnapshotTracksModelMutation(t *testing.T) {
	app := paperApp(t)
	st := storage.NewMem()
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	genBefore, _ := st.Generation()

	if _, err := app.SetAccessStructures(map[string]navigation.AccessStructure{"ByAuthor": navigation.Index{}}); err != nil {
		t.Fatal(err)
	}
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	genAfter, _ := st.Generation()
	if genAfter == genBefore {
		t.Errorf("generation stamp did not move with the model: %d", genAfter)
	}
	ctxs, err := core.LoadSnapshotContexts(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ctxs {
		if strings.HasPrefix(c.Name, "ByAuthor") && c.AccessKind != "index" {
			t.Errorf("context %s access = %s, want index", c.Name, c.AccessKind)
		}
	}
}

// TestSnapshotStaleKeysRemoved: a document that exists only in an older
// export is deleted by the next one.
func TestSnapshotStaleKeysRemoved(t *testing.T) {
	app := paperApp(t)
	st := storage.NewMem()
	if err := st.Put(core.SnapshotPrefix+"ghost.xml", []byte("<ghost/>")); err != nil {
		t.Fatal(err)
	}
	if err := app.ExportSnapshot(st); err != nil {
		t.Fatal(err)
	}
	repo, err := core.LoadSnapshotRepository(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, uri := range repo.URIs() {
		if uri == "ghost.xml" {
			t.Error("stale snapshot key survived re-export")
		}
	}
}

func TestLoadSnapshotEmptyStore(t *testing.T) {
	if _, err := core.LoadSnapshotRepository(storage.NewMem()); err == nil {
		t.Error("empty store produced a repository")
	}
}
