// Package core implements the paper's primary contribution: separating the
// navigational aspect of a web application from its data and presentation,
// and weaving the three back together mechanically (Figure 6).
//
// The pieces, each authored independently:
//
//   - Data: conceptual instances exported to per-node XML documents
//     (picasso.xml, avignon.xml — Figures 7–8), containing no links.
//   - Navigation: the navigational model, serialized to an XLink linkbase
//     (links.xml — Figure 9). All link structure lives here.
//   - Presentation: a template stylesheet producing each node's base page,
//     oblivious to navigation.
//
// An App exposes the page-production pipeline as join points
// (KindPageRender, KindSiteWeave) and installs a navigation aspect whose
// around advice reads the linkbase and injects the access-structure markup
// into each page. Changing the access structure — the paper's §5
// requirements change that forced edits to every page of the tangled
// implementation (Figures 3–4) — becomes a one-line re-declaration here:
// SetAccessStructures re-resolves, regenerates links.xml and drops the
// pages the swap touched.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/aspect"
	"repro/internal/conceptual"
	"repro/internal/navigation"
	"repro/internal/obs"
	"repro/internal/presentation"
	"repro/internal/xlink"
	"repro/internal/xmldom"
)

// Join point kinds exposed by the weaving pipeline.
const (
	// KindSiteWeave wraps the whole static weave of a site.
	KindSiteWeave = "site.weave"
	// KindPageRender wraps the production of one page; the navigation
	// aspect advises it. Attrs: context, access, node (or "_index"),
	// class.
	KindPageRender = "page.render"
)

// App is a woven web application: one conceptual store, one navigational
// model, optional custom presentation, and an aspect weaver.
//
// An App offers each operation once. Pages are read through
// RenderPageCachedStat (the cached serve), RenderPage (one uncached
// weave) or WeaveSite (every page); the model is changed through
// SetAccessStructures, SetStylesheet and EditDocument, each returning
// how many cached pages it dropped.
//
// An App is safe for concurrent use: any number of goroutines may render
// pages while others mutate the model. Renders see either the old or the
// new model, never a mix, and the page cache is invalidated atomically
// with every mutation.
type App struct {
	store *conceptual.Store
	model *navigation.Model

	weaver *aspect.Weaver
	cache  *pageCache
	docs   *docCache
	// events traces recent mutations: duration, diff verdict and
	// invalidation blast radius per model change (see Events).
	events *obs.Ring[obs.MutationEvent]

	// mu guards the model-derived state below: renders hold the read
	// lock for the whole pipeline; rebuilds hold the write lock.
	mu         sync.RWMutex
	stylesheet *presentation.Stylesheet
	resolved   *navigation.ResolvedModel
	repo       xlink.MapRepository
	linkbase   *xmldom.Document
	lbContexts map[string]*navigation.LinkbaseContext
	sig        modelSig
}

// contextSig fingerprints the parts of one linkbase context that woven
// pages display: the member roll with its titles (order matters — it is
// traversal order) and the traversal edges.
type contextSig struct {
	members string
	edges   string
}

// modelSig fingerprints the navigational surface of the whole model.
// rebuild diffs the signature before and after a mutation to decide
// which cached pages the mutation actually touched: changed edges stay
// local to their context, while changed membership, titles or landmarks
// leak into every page (the "Also in" links and the landmark bar), so
// those force a full invalidation.
type modelSig struct {
	contexts  map[string]contextSig
	landmarks string
}

// NewApp assembles an application: it resolves the navigational model,
// exports the data documents, generates the linkbase and installs the
// navigation aspect.
func NewApp(store *conceptual.Store, model *navigation.Model) (*App, error) {
	app := &App{
		store:  store,
		model:  model,
		weaver: aspect.NewWeaver(),
		cache:  newPageCache(),
		docs:   newDocCache(),
		events: obs.NewRing[obs.MutationEvent](eventRingCapacity),
	}
	if _, _, err := app.rebuild(); err != nil {
		return nil, err
	}
	app.weaver.Use(NavigationAspect(app))
	return app, nil
}

// rebuild re-derives everything that depends on the model: resolved
// contexts, data repository and linkbase. Callers other than NewApp must
// hold app.mu for writing. It returns how many cached pages were
// dropped and the diff's verdict (verdictFull, verdictLocal or
// verdictNone) — the blast-radius classification the mutation trace
// records.
//
// Invalidation is dependency-aware: rebuild diffs the navigational
// signature and the serialized documents before and after, and drops
// only the cached pages the mutation actually touched — the paper's
// separation applied to the cache. A change that stays inside one
// context family (the §5 access-structure swap) costs that family's
// pages, not the site's.
func (app *App) rebuild() (int, string, error) {
	start := time.Now()
	oldSig := app.sig
	rm, err := app.model.Resolve(app.store)
	if err != nil {
		return 0, "", fmt.Errorf("core: resolving navigation model: %w", err)
	}
	app.resolved = rm

	app.repo = xlink.MapRepository{}
	for name, doc := range conceptual.ExportAll(app.store) {
		app.repo[name] = doc
	}
	app.linkbase = navigation.GenerateLinkbase(rm)
	app.repo["links.xml"] = app.linkbase

	// The weaving pipeline reads navigation back OUT of the linkbase —
	// not out of the in-memory model — proving links.xml carries the
	// whole navigational aspect, as the paper proposes.
	contexts, err := navigation.ParseLinkbase(app.linkbase)
	if err != nil {
		return 0, "", fmt.Errorf("core: reading generated linkbase: %w", err)
	}
	app.lbContexts = make(map[string]*navigation.LinkbaseContext, len(contexts))
	for _, c := range contexts {
		app.lbContexts[c.Name] = c
	}
	app.sig = app.modelSigLocked()

	// Serialize every repository document once, at mutation time: the
	// bytes seed the serialized-document cache the server hands out
	// (no per-request serialization), and diffing them against the
	// previous serialization reveals which data documents changed.
	serialized := make(map[string][]byte, len(app.repo))
	for uri, doc := range app.repo {
		serialized[uri] = []byte(doc.IndentedString())
	}
	changedDocs := app.docs.diff(serialized)

	// Decide what the mutation touched. The generation advances with
	// any invalidation, so weaves in flight across the mutation are
	// discarded rather than cached against the new model.
	changedCtxs := map[string]bool{}
	full := oldSig.contexts == nil || oldSig.landmarks != app.sig.landmarks ||
		len(oldSig.contexts) != len(app.sig.contexts)
	if !full {
		for name, nc := range app.sig.contexts {
			oc, ok := oldSig.contexts[name]
			if !ok || oc.members != nc.members {
				// A context appeared or its member roll (or titles)
				// changed: the "Also in" links and embeds of pages in
				// *other* contexts may name it, so stay conservative.
				full = true
				break
			}
			if oc.edges != nc.edges {
				changedCtxs[name] = true
			}
		}
	}
	dropped, verdict := 0, verdictNone
	switch {
	case full:
		dropped = app.cache.invalidate()
		verdict = verdictFull
	case len(changedCtxs) > 0 || len(changedDocs) > 0:
		dropped = app.cache.invalidateMatching(func(p *Page) bool {
			if changedCtxs[p.deps.context] {
				return true
			}
			for _, d := range p.deps.docs {
				if changedDocs[d] {
					return true
				}
			}
			return false
		})
		verdict = verdictLocal
	}
	// Unchanged documents keep their ETags (and cached pages their
	// entries): a rebuild that changes nothing observable costs nothing.
	app.docs.reseed(serialized, changedDocs, app.cache.generation())
	rebuildDuration.Observe(time.Since(start))
	rebuildsByVerdict[verdict].Inc()
	return dropped, verdict, nil
}

// modelSigLocked fingerprints the current linkbase contexts and
// landmarks. Callers must hold app.mu (NewApp's first rebuild runs
// before the App escapes).
func (app *App) modelSigLocked() modelSig {
	sig := modelSig{contexts: make(map[string]contextSig, len(app.lbContexts))}
	for name, lbc := range app.lbContexts {
		var m, e strings.Builder
		for _, id := range lbc.Order {
			m.WriteString(id)
			m.WriteByte(0)
			m.WriteString(lbc.NodeTitles[id])
			m.WriteByte(0)
		}
		// Hub-ness rides the edges signature, not the member roll: only
		// the context's own pages render its hub (the index page, Up
		// links), so a swap that drops or gains one stays family-local.
		// Cross-context consumers of an entry node — the landmark bar —
		// are covered by the landmarks signature, which records every
		// landmark's entry.
		if lbc.HasHub {
			e.WriteString("\x00hub")
		}
		e.WriteString(lbc.AccessKind)
		e.WriteByte(0)
		for _, ed := range lbc.Edges {
			e.WriteString(string(ed.Kind))
			e.WriteByte(0)
			e.WriteString(ed.From)
			e.WriteByte(0)
			e.WriteString(ed.To)
			e.WriteByte(0)
			e.WriteString(ed.Label)
			e.WriteByte(0)
			e.WriteString(ed.Show)
			e.WriteByte(0)
		}
		sig.contexts[name] = contextSig{members: m.String(), edges: e.String()}
	}
	var l strings.Builder
	for _, lm := range app.resolved.Landmarks {
		l.WriteString(lm.Name)
		l.WriteByte(0)
		l.WriteString(lm.EntryNode())
		l.WriteByte(0)
	}
	sig.landmarks = l.String()
	return sig
}

// Store returns the conceptual store.
func (app *App) Store() *conceptual.Store { return app.store }

// Model returns the navigational model.
func (app *App) Model() *navigation.Model { return app.model }

// Resolved returns the resolved navigation model.
func (app *App) Resolved() *navigation.ResolvedModel {
	app.mu.RLock()
	defer app.mu.RUnlock()
	return app.resolved
}

// Weaver returns the aspect weaver, so callers can register further
// aspects (logging, access control) beside navigation.
func (app *App) Weaver() *aspect.Weaver { return app.weaver }

// Linkbase returns the generated links.xml document.
func (app *App) Linkbase() *xmldom.Document {
	app.mu.RLock()
	defer app.mu.RUnlock()
	return app.linkbase
}

// Repository returns the data-document repository (node XML files plus
// links.xml), the input an XLink-aware agent works from.
func (app *App) Repository() xlink.MapRepository {
	app.mu.RLock()
	defer app.mu.RUnlock()
	return app.repo
}

// SetStylesheet installs a custom presentation stylesheet for node pages
// and returns how many cached pages it dropped. It must transform a node
// data document (e.g. Figure 7's painter XML) into a single html
// element. A nil stylesheet restores the built-in presentation. Only the
// cached pages woven through the stylesheet slot — member pages — are
// invalidated; hub shells and the serialized documents never consult it
// and stay cached. Parse an XML stylesheet before calling it
// (presentation.ParseStylesheetString): a malformed source then changes
// nothing.
func (app *App) SetStylesheet(ss *presentation.Stylesheet) int {
	start := time.Now()
	app.mu.Lock()
	defer app.mu.Unlock()
	app.stylesheet = ss
	dropped := app.cache.invalidateMatching(func(p *Page) bool { return p.deps.stylesheet })
	app.recordMutation("stylesheet", "stylesheet", start, dropped, verdictLocal)
	return dropped
}

// StylesheetXML returns the XML source of the installed stylesheet, and
// whether it has one. The built-in presentation and stylesheets built in
// code have no XML source, so they report false.
func (app *App) StylesheetXML() (string, bool) {
	app.mu.RLock()
	defer app.mu.RUnlock()
	if app.stylesheet == nil {
		return "", false
	}
	src := app.stylesheet.Source()
	return src, src != ""
}

// ModelView is one consistent read of everything the control plane's
// model endpoint serves: the declaration artifact, each family's access
// structure, the resolved model and the cache generation, all taken
// under a single acquisition of the model lock — a concurrent swap
// yields either the before or the after view, never a mix.
type ModelView struct {
	SpecText   string
	Access     map[string]navigation.AccessStructure
	Resolved   *navigation.ResolvedModel
	Generation uint64
}

// View snapshots a ModelView.
func (app *App) View() ModelView {
	app.mu.RLock()
	defer app.mu.RUnlock()
	access := make(map[string]navigation.AccessStructure, len(app.model.Contexts()))
	for _, c := range app.model.Contexts() {
		access[c.Name] = c.Access
	}
	return ModelView{
		SpecText:   navigation.SpecText(app.model),
		Access:     access,
		Resolved:   app.resolved,
		Generation: app.cache.generation(),
	}
}

// ErrUnknownFamily reports a structure swap naming a context family the
// model does not declare; callers (the control plane) test for it with
// errors.Is to answer 404 rather than 500.
var ErrUnknownFamily = errors.New("unknown context family")

// SetAccessStructures swaps the access structures of one or more context
// families and re-derives the linkbase — the paper's requirements change
// (Index to Indexed Guided Tour), reduced from editing every page to one
// call: SetAccessStructures(map[string]navigation.AccessStructure{
// "ByAuthor": navigation.IndexedGuidedTour{}}). A batch swaps
// atomically, with one re-derivation and one invalidation diff — what
// the adaptation loop wants when a derive cycle updates every family at
// once. All families are validated before any is mutated; an empty map
// is a no-op. Cached pages are invalidated atomically with the swap, and
// it returns how many — the blast radius the dependency-aware diff
// decided on, which the control plane reports back to the operator.
func (app *App) SetAccessStructures(swaps map[string]navigation.AccessStructure) (int, error) {
	if len(swaps) == 0 {
		return 0, nil
	}
	defs := make(map[string]*navigation.ContextDef, len(swaps))
	for _, c := range app.model.Contexts() {
		if _, wanted := swaps[c.Name]; wanted {
			defs[c.Name] = c
		}
	}
	families := make([]string, 0, len(swaps))
	for family := range swaps {
		if defs[family] == nil {
			return 0, fmt.Errorf("core: %w %q", ErrUnknownFamily, family)
		}
		families = append(families, family)
	}
	sort.Strings(families)
	start := time.Now()
	app.mu.Lock()
	defer app.mu.Unlock()
	for family, as := range swaps {
		defs[family].Access = as
	}
	dropped, verdict, err := app.rebuild()
	if err != nil {
		return dropped, err
	}
	app.recordMutation("structure-swap", strings.Join(families, ","), start, dropped, verdict)
	return dropped, nil
}

// ErrUnknownInstance reports a document edit naming an instance the
// store does not hold; the control plane answers 404 for it.
var ErrUnknownInstance = errors.New("unknown instance")

// ErrInvalidEdit reports a document edit the instance's class
// declaration rejects (unknown attribute, non-integer value, cleared
// required attribute); nothing was applied. The control plane answers
// 400 for it.
var ErrInvalidEdit = errors.New("invalid edit")

// EditDocument applies a content edit to instance id — set maps
// attribute names to new values, validated as a batch before any is
// applied — and drops exactly the cached pages the edit touched,
// returning how many. Validation, the edit and the re-derivation run
// under one hold of the model lock, so no render sees the edit without
// its invalidation.
//
// The navigational model decides how much to re-derive. An edit that
// changes no attribute navigation reads (navigation.Model.ReadsAttr:
// titles, orderings, Where filters) cannot change the linkbase — the
// paper's separation — so only the instance's own document is
// re-exported and the pages woven from it are dropped; the resolved
// model, links.xml and every other validator stay as they were. An
// edit that reaches the navigational surface runs the full rebuild,
// whose diff invalidates as widely as it must.
func (app *App) EditDocument(id string, set map[string]string) (int, error) {
	start := time.Now()
	app.mu.Lock()
	defer app.mu.Unlock()
	inst := app.store.Get(id)
	if inst == nil {
		return 0, fmt.Errorf("core: %w %q", ErrUnknownInstance, id)
	}
	navigational := false
	for name, value := range set {
		if inst.Attr(name) != value && app.model.ReadsAttr(inst.Class, name) {
			navigational = true
		}
	}
	if err := app.store.SetAttrs(id, set); err != nil {
		return 0, fmt.Errorf("core: %w: %v", ErrInvalidEdit, err)
	}
	var dropped int
	var verdict string
	if navigational {
		var err error
		if dropped, verdict, err = app.rebuild(); err != nil {
			return dropped, err
		}
	} else {
		dropped, verdict = app.reexportLocked(inst)
	}
	app.recordMutation("document", navigation.NodeHref(id), start, dropped, verdict)
	return dropped, nil
}

// reexportLocked is the content-only rebuild: it re-exports one
// instance's data document and, when its bytes changed, drops the pages
// woven from it, installs the document in a copy of the repository
// (Repository hands the map out, so it is never written in place) and
// stamps a fresh validator under the new cache generation — the same
// outcome the full rebuild's diff reaches for an edit navigation does
// not read, without re-resolving or re-serializing anything else.
// Callers must hold app.mu for writing.
func (app *App) reexportLocked(inst *conceptual.Instance) (int, string) {
	start := time.Now()
	uri := navigation.NodeHref(inst.ID)
	doc := conceptual.ExportInstance(app.store, inst)
	body := []byte(doc.IndentedString())
	dropped, verdict := 0, verdictNone
	if old, ok := app.docs.get(uri); !ok || !bytes.Equal(old.body, body) {
		dropped = app.cache.invalidateMatching(func(p *Page) bool {
			return slices.Contains(p.deps.docs, uri)
		})
		verdict = verdictLocal
		repo := maps.Clone(app.repo)
		repo[uri] = doc
		app.repo = repo
		app.docs.put(uri, body, app.cache.generation())
	}
	rebuildDuration.Observe(time.Since(start))
	rebuildsByVerdict[verdict].Inc()
	return dropped, verdict
}

// DocBytes returns the serialized form of repository document uri with
// its precomputed strong validator and Content-Length. The bytes are
// produced once, at mutation time (rebuild and EditDocument keep the
// cache seeded for the whole repository), so the request path
// neither serializes, hashes nor formats. The returned slice is shared:
// callers must not modify it.
//
//repro:hotpath
func (app *App) DocBytes(uri string) (body []byte, etag, contentLength string, err error) {
	if e, ok := app.docs.get(uri); ok {
		return e.body, e.etag, e.clen, nil
	}
	//repro:allow(miss path: unknown document, request fails with 404)
	return nil, "", "", fmt.Errorf("core: no document %q", uri)
}

// strongETag builds the validator for a body serialized under gen:
// "g<generation>-<hash>". Either a model change (new generation for
// changed content) or a content change produces a new tag, while
// untouched content keeps validating across unrelated mutations.
func strongETag(gen uint64, body []byte) string {
	h := fnv.New64a()
	_, _ = h.Write(body)
	return fmt.Sprintf(`"g%d-%x"`, gen, h.Sum64())
}

// CachedPages reports how many woven pages the request-time cache
// currently holds (diagnostics and tests).
func (app *App) CachedPages() int { return app.cache.size() }

// CacheGeneration returns the woven-page cache's current generation.
// Every invalidating mutation (a structure swap, a stylesheet install, an
// edit that changed a document) advances it, so it doubles as the HTTP
// validator: the server folds it into ETags, making every cached
// response self-invalidate on the next mutation.
func (app *App) CacheGeneration() uint64 { return app.cache.generation() }

// PagePath returns the site-relative path of a page: the hub page of a
// context is <context>/index.html, a member page <context>/<node>.html,
// with ':' in context names becoming a directory separator.
func PagePath(contextName, nodeID string) string {
	dir := strings.ReplaceAll(contextName, ":", "/")
	if nodeID == navigation.HubID || nodeID == "" {
		return dir + "/index.html"
	}
	return dir + "/" + nodeID + ".html"
}

// href renders a root-relative link target for an edge destination.
func href(contextName, nodeID string) string {
	return "/" + PagePath(contextName, nodeID)
}
