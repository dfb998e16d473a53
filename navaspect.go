// Package navaspect is the public facade of the reproduction of
// "Separating the Navigational Aspect" (Reina Quintero & Torres
// Valderrama, ICDCS 2002 workshops): a library for building web
// applications whose navigation is a separate, swappable aspect rather
// than markup tangled into every page.
//
// The workflow mirrors the paper's Figure 6:
//
//	store := navaspect.NewSchema()…          // conceptual model (data)
//	model := navaspect.NewModel()…           // navigational model (links)
//	app, _ := navaspect.New(store, model)    // weave them together
//	site, _ := app.WeaveSite()               // static weaving, or
//	page, _ := app.RenderPage(ctx, node)     // request-time weaving
//
// Data is exported to per-node XML documents containing no links; all link
// structure is generated into an XLink linkbase (links.xml); presentation
// is a template stylesheet; and the navigation aspect weaves the three at
// page-production join points. Changing an access structure — the paper's
// motivating maintenance scenario — is one SetAccessStructures call:
//
//	app.SetAccessStructures(map[string]navaspect.AccessStructure{
//		"ByAuthor": navaspect.IndexedGuidedTour{},
//	})
//
// The facade re-exports the types a downstream user needs; the full
// machinery lives in the internal packages (xmldom, xpath, xpointer,
// xlink, conceptual, aspect, navigation, presentation, core, tangled,
// server).
package navaspect

import (
	"repro/internal/aspect"
	"repro/internal/conceptual"
	"repro/internal/core"
	"repro/internal/lift"
	"repro/internal/navigation"
	"repro/internal/presentation"
	"repro/internal/server"
)

// Conceptual-model types (the paper's "basic functionality").
type (
	// Schema declares conceptual classes and relationships.
	Schema = conceptual.Schema
	// Class is one conceptual class.
	Class = conceptual.Class
	// AttrDef declares a class attribute.
	AttrDef = conceptual.AttrDef
	// Relationship declares a relationship between classes.
	Relationship = conceptual.Relationship
	// Store holds validated instances and links.
	Store = conceptual.Store
	// Instance is one conceptual object.
	Instance = conceptual.Instance
)

// Attribute types and cardinalities.
const (
	StringAttr = conceptual.StringAttr
	IntAttr    = conceptual.IntAttr

	OneToOne   = conceptual.OneToOne
	OneToMany  = conceptual.OneToMany
	ManyToOne  = conceptual.ManyToOne
	ManyToMany = conceptual.ManyToMany
)

// NewSchema returns an empty conceptual schema.
func NewSchema() *Schema { return conceptual.NewSchema() }

// NewClass declares a conceptual class.
func NewClass(name string, attrs ...AttrDef) *Class { return conceptual.NewClass(name, attrs...) }

// NewStore returns an empty instance store over a schema.
func NewStore(schema *Schema) *Store { return conceptual.NewStore(schema) }

// Navigational-model types (the separated aspect).
type (
	// Model is a navigational schema: node classes, links, contexts.
	Model = navigation.Model
	// NodeClass is a navigational view over a conceptual class.
	NodeClass = navigation.NodeClass
	// NavLink is a navigational view over a relationship.
	NavLink = navigation.NavLink
	// ContextDef declares a navigational context family.
	ContextDef = navigation.ContextDef
	// AccessStructure computes a context's traversal topology.
	AccessStructure = navigation.AccessStructure
	// Index is the access structure of the paper's Figure 2(a).
	Index = navigation.Index
	// GuidedTour is a sequential tour without an index page.
	GuidedTour = navigation.GuidedTour
	// IndexedGuidedTour is the structure of Figure 2(b).
	IndexedGuidedTour = navigation.IndexedGuidedTour
	// Menu is a flat entry page without back links.
	Menu = navigation.Menu
	// Session is a context-tracking navigation session (§2 semantics).
	Session = navigation.Session
	// Edge is one navigation edge.
	Edge = navigation.Edge
)

// NewModel returns an empty navigational model.
func NewModel() *Model { return navigation.NewModel() }

// NewSession starts a navigation session over a resolved model.
func NewSession(rm *navigation.ResolvedModel) *Session { return navigation.NewSession(rm) }

// HubID is the pseudo-node ID of a context's entry (index) page.
const HubID = navigation.HubID

// Application types (the weaving of Figure 6).
type (
	// App is a woven application.
	App = core.App
	// Site is a statically woven site.
	Site = core.Site
	// Page is one woven page.
	Page = core.Page
	// Stylesheet is a presentation template stylesheet.
	Stylesheet = presentation.Stylesheet
	// Aspect is a unit of crosscutting behaviour.
	Aspect = aspect.Aspect
	// Weaver composes aspects with join points.
	Weaver = aspect.Weaver
)

// New assembles an application from a store and a navigational model:
// data documents and links.xml are derived, and the navigation aspect is
// installed on the page pipeline.
func New(store *Store, model *Model) (*App, error) { return core.NewApp(store, model) }

// ParseStylesheet parses the XML form of a presentation stylesheet.
func ParseStylesheet(src string) (*Stylesheet, error) {
	return presentation.ParseStylesheetString(src)
}

// NewServer returns an http.Handler serving the woven application — the
// XLink-aware user agent of the paper's further-work section.
func NewServer(app *App) *server.Server { return server.New(app) }

// PagePath maps (context, node) to the page's site-relative path.
func PagePath(contextName, nodeID string) string { return core.PagePath(contextName, nodeID) }

// LiftResult is the outcome of lifting a tangled site: the extracted
// linkbase, the recovered contexts and the navigation-stripped pages.
type LiftResult = lift.Result

// LiftSite migrates a tangled HTML site (path -> page text) to the
// separated architecture by extracting its navigation into an XLink
// linkbase — the adoption path for existing applications.
func LiftSite(pages map[string]string) (*LiftResult, error) { return lift.Site(pages) }
