package navigation

import (
	"fmt"
	"sync"

	"repro/internal/conceptual"
)

// ContextDef declares a navigational context (or a family of them):
// which nodes belong to it, how they are grouped and ordered, and which
// access structure traverses them. This is OOHDM's navigational-context
// primitive as the paper describes it — "a set of nodes, links, context
// classes and other navigational contexts ... traversed following a
// particular order".
type ContextDef struct {
	// Name identifies the context family, e.g. "ByAuthor".
	Name string
	// NodeClass names the member node class.
	NodeClass string
	// GroupBy, when set, names a relationship (or declared inverse) on
	// whose sources the family is partitioned: "paints" yields one
	// context per painter holding that painter's paintings. Empty
	// yields a single context over all instances of the class.
	GroupBy string
	// OrderBy names the member attribute that orders the context;
	// empty keeps store order.
	OrderBy string
	// Access is the traversal structure. Swapping it re-weaves every
	// page of the context — the paper's motivating change.
	Access AccessStructure
	// Show is the XLink behaviour for the context's links: "replace"
	// (default), "new" (open in a new presentation context) or "embed"
	// (inline the target where the link stands). The woven pages and
	// the generated linkbase both honour it.
	Show string
	// Where, when set, restricts membership to nodes satisfying one
	// comparison over an attribute (OOHDM's context classes), e.g.
	// "year >= 1910" or "technique = 'Oil on canvas'".
	Where string
}

// ShowOrDefault returns the declared behaviour, defaulting to "replace".
func (c *ContextDef) ShowOrDefault() string {
	if c.Show == "" {
		return "replace"
	}
	return c.Show
}

// ResolvedContext is one concrete navigational context: an ordered member
// list with its access structure, ready to answer traversal queries.
// Once resolved it is immutable, and all query methods are safe for
// concurrent use — request-time weaving hits the same context from many
// goroutines at once.
type ResolvedContext struct {
	// Def is the generating definition.
	Def *ContextDef
	// Name is the instance name: "ByAuthor:picasso" for grouped
	// families, or just the family name when ungrouped.
	Name string
	// Group is the grouping instance (the painter), nil when ungrouped.
	Group *conceptual.Instance
	// Members are the context's nodes in traversal order.
	Members []*Node

	edgesOnce sync.Once
	edges     []Edge
	indexOnce sync.Once
	index     map[string]int
}

// EntryNode returns the node a link into the context lands on: the hub
// when the access structure has one, otherwise the first member. Every
// renderer of a context-entry link (landmark bars, the site map, the
// cache's model signature) must agree on this rule.
func (rc *ResolvedContext) EntryNode() string {
	if !rc.Def.Access.HasHub() && len(rc.Members) > 0 {
		return rc.Members[0].ID()
	}
	return HubID
}

// Edges returns the context's navigation edges (computed once), stamped
// with the context's declared XLink show behaviour. A context-aware
// access structure (an adaptive tour with per-context plans) is asked
// for this instance's edges by name; every other structure sees only
// the ordered members.
func (rc *ResolvedContext) Edges() []Edge {
	rc.edgesOnce.Do(func() {
		var edges []Edge
		if ca, ok := rc.Def.Access.(ContextAwareAccess); ok {
			edges = ca.EdgesFor(rc.Name, rc.Members)
		} else {
			edges = rc.Def.Access.Edges(rc.Members)
		}
		show := rc.Def.ShowOrDefault()
		for i := range edges {
			edges[i].Show = show
		}
		rc.edges = edges
	})
	return rc.edges
}

// Position returns the 0-based position of the node in the context, or -1.
func (rc *ResolvedContext) Position(nodeID string) int {
	rc.indexOnce.Do(func() {
		rc.index = make(map[string]int, len(rc.Members))
		for i, m := range rc.Members {
			rc.index[m.ID()] = i
		}
	})
	if i, ok := rc.index[nodeID]; ok {
		return i
	}
	return -1
}

// Member returns the member node with the given ID, or nil.
func (rc *ResolvedContext) Member(nodeID string) *Node {
	if i := rc.Position(nodeID); i >= 0 {
		return rc.Members[i]
	}
	return nil
}

// OutEdges returns the edges leaving the given node (or HubID) in this
// context.
func (rc *ResolvedContext) OutEdges(fromID string) []Edge {
	var out []Edge
	for _, e := range rc.Edges() {
		if e.From == fromID {
			out = append(out, e)
		}
	}
	return out
}

// Next returns the member after nodeID in context order, or nil at the
// end (callers wanting ring semantics use a circular access structure,
// whose edges wrap; Next follows the edges, not raw order).
func (rc *ResolvedContext) Next(nodeID string) *Node {
	for _, e := range rc.OutEdges(nodeID) {
		if e.Kind == EdgeNext {
			return rc.Member(e.To)
		}
	}
	return nil
}

// Prev returns the member before nodeID per the context's edges, or nil.
func (rc *ResolvedContext) Prev(nodeID string) *Node {
	for _, e := range rc.OutEdges(nodeID) {
		if e.Kind == EdgePrev {
			return rc.Member(e.To)
		}
	}
	return nil
}

// String renders the context for diagnostics.
func (rc *ResolvedContext) String() string {
	return fmt.Sprintf("%s(%d members, %s)", rc.Name, len(rc.Members), rc.Def.Access.Kind())
}

// ResolvedModel holds every resolved context of a model over one store.
type ResolvedModel struct {
	// Model is the generating navigational model.
	Model *Model
	// Store is the conceptual instance store.
	Store *conceptual.Store
	// Contexts are the resolved contexts in definition order (and group
	// insertion order within a family).
	Contexts []*ResolvedContext
	// Landmarks are the resolved landmark contexts, reachable from
	// every page.
	Landmarks []*ResolvedContext

	byName map[string]*ResolvedContext
}

// Context returns the named resolved context, or nil.
func (rm *ResolvedModel) Context(name string) *ResolvedContext { return rm.byName[name] }

// ContextsOf returns the resolved contexts of one family.
func (rm *ResolvedModel) ContextsOf(family string) []*ResolvedContext {
	var out []*ResolvedContext
	for _, rc := range rm.Contexts {
		if rc.Def.Name == family {
			out = append(out, rc)
		}
	}
	return out
}

// ContextsContaining returns every resolved context that includes the node.
func (rm *ResolvedModel) ContextsContaining(nodeID string) []*ResolvedContext {
	var out []*ResolvedContext
	for _, rc := range rm.Contexts {
		if rc.Position(nodeID) >= 0 {
			out = append(out, rc)
		}
	}
	return out
}

// Resolve materializes every context family of the model against a store.
// Each resolved context carries a snapshot of its definition, not the
// live one: a later mutation of the model (SetAccessStructures swapping
// def.Access) must not reach into contexts that were resolved before it
// — sessions, renderers and the analytics deriver read their resolved
// model lock-free on the strength of that immutability.
func (m *Model) Resolve(store *conceptual.Store) (*ResolvedModel, error) {
	rm := &ResolvedModel{Model: m, Store: store, byName: map[string]*ResolvedContext{}}
	for _, live := range m.contexts {
		def := new(ContextDef)
		*def = *live
		nc := m.nodeClasses[def.NodeClass]
		where, err := compileWhere(def.Where)
		if err != nil {
			return nil, fmt.Errorf("navigation: context %q: %w", def.Name, err)
		}
		if def.GroupBy == "" {
			members := make([]*Node, 0)
			for _, inst := range store.InstancesOf(nc.Class) {
				members = append(members, nodeOf(nc, inst))
			}
			members = filterNodes(members, where)
			orderNodes(members, def.OrderBy)
			rc := &ResolvedContext{Def: def, Name: def.Name, Members: members}
			rm.Contexts = append(rm.Contexts, rc)
			rm.byName[rc.Name] = rc
			continue
		}
		rel := store.Schema().Relationship(def.GroupBy)
		if rel == nil {
			return nil, fmt.Errorf("navigation: context %q: unknown relationship %q", def.Name, def.GroupBy)
		}
		if rel.Target != nc.Class {
			return nil, fmt.Errorf("navigation: context %q: relationship %q targets %q, not member class %q",
				def.Name, def.GroupBy, rel.Target, nc.Class)
		}
		for _, group := range store.InstancesOf(rel.Source) {
			related := store.Related(group.ID, rel.Name)
			members := make([]*Node, 0, len(related))
			for _, inst := range related {
				members = append(members, nodeOf(nc, inst))
			}
			members = filterNodes(members, where)
			if len(members) == 0 {
				continue // empty contexts are not materialized
			}
			orderNodes(members, def.OrderBy)
			rc := &ResolvedContext{
				Def:     def,
				Name:    def.Name + ":" + group.ID,
				Group:   group,
				Members: members,
			}
			rm.Contexts = append(rm.Contexts, rc)
			rm.byName[rc.Name] = rc
		}
	}
	for _, name := range m.landmarks {
		rc := rm.byName[name]
		if rc == nil {
			return nil, fmt.Errorf("navigation: landmark %q did not resolve", name)
		}
		rm.Landmarks = append(rm.Landmarks, rc)
	}
	return rm, nil
}

// ReadsAttr reports whether resolving the model reads attribute attr of
// conceptual class class: as a node class's title (locator titles and
// anchor labels), as a context's order, or in a context's Where filter
// (membership). An edit to any other attribute cannot change what
// Resolve produces — it is content, not navigation. A Where that does
// not compile is assumed to read every attribute.
func (m *Model) ReadsAttr(class, attr string) bool {
	for _, nc := range m.nodeClasses {
		if nc.Class == class && nc.TitleAttr == attr {
			return true
		}
	}
	for _, def := range m.contexts {
		nc := m.nodeClasses[def.NodeClass]
		if nc == nil || nc.Class != class {
			continue
		}
		if def.OrderBy == attr {
			return true
		}
		if where, err := compileWhere(def.Where); err != nil || (where != nil && where.attr == attr) {
			return true
		}
	}
	return false
}
