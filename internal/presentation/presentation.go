// Package presentation implements the presentation layer of the paper's
// architecture: a template-rule stylesheet engine with XSLT-like semantics
// (match patterns, apply-templates, value-of, for-each, if/choose) over the
// xmldom/xpath stack, plus an HTML serializer.
//
// The paper takes the XML + XSL split of data and presentation as its
// starting point (§1, §6); this package supplies that half of the
// separation so the navigational aspect can be studied against it. Like
// the other substrates it is implemented from scratch on the standard
// library.
package presentation

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// Instruction is one template-body operation that emits output nodes.
type Instruction interface {
	exec(ec *execCtx, out *xmldom.Element) error
}

// execCtx carries the current source node and engine state.
type execCtx struct {
	engine *Stylesheet
	node   xmldom.Node
	pos    int
	size   int
	depth  int
}

func (ec *execCtx) xctx() *xpath.Context {
	return &xpath.Context{Node: ec.node, Position: ec.pos, Size: ec.size}
}

// maxApplyDepth bounds template recursion to fail fast on cyclic rules.
const maxApplyDepth = 200

// Text emits a literal text node.
type Text struct{ Data string }

func (t Text) exec(_ *execCtx, out *xmldom.Element) error {
	out.AppendText(t.Data)
	return nil
}

// ValueOf evaluates an expression and emits its string value.
type ValueOf struct{ Select *xpath.Expr }

func (v ValueOf) exec(ec *execCtx, out *xmldom.Element) error {
	val, err := v.Select.Eval(ec.xctx())
	if err != nil {
		return fmt.Errorf("presentation: value-of %s: %w", v.Select, err)
	}
	out.AppendText(xpath.StringOf(val))
	return nil
}

// AttrTemplate is one attribute on a literal element; Value supports
// {expr} attribute value templates.
type AttrTemplate struct {
	Name  string
	Value string
}

// Elem emits a literal element with attribute value templates and a body.
type Elem struct {
	Name  string
	Attrs []AttrTemplate
	Body  []Instruction
}

func (e Elem) exec(ec *execCtx, out *xmldom.Element) error {
	el := xmldom.NewElement(e.Name)
	for _, a := range e.Attrs {
		v, err := expandAVT(ec, a.Value)
		if err != nil {
			return err
		}
		el.SetAttr(a.Name, v)
	}
	out.AppendChild(el)
	for _, ins := range e.Body {
		if err := ins.exec(ec, el); err != nil {
			return err
		}
	}
	return nil
}

// expandAVT expands an attribute value template: {expr} parts evaluate as
// XPath string expressions; {{ and }} escape literal braces.
func expandAVT(ec *execCtx, tmpl string) (string, error) {
	var sb strings.Builder
	for i := 0; i < len(tmpl); i++ {
		c := tmpl[i]
		switch c {
		case '{':
			if i+1 < len(tmpl) && tmpl[i+1] == '{' {
				sb.WriteByte('{')
				i++
				continue
			}
			end := strings.IndexByte(tmpl[i+1:], '}')
			if end < 0 {
				return "", fmt.Errorf("presentation: unterminated { in attribute template %q", tmpl)
			}
			src := tmpl[i+1 : i+1+end]
			expr, err := xpath.Compile(src)
			if err != nil {
				return "", fmt.Errorf("presentation: attribute template %q: %w", tmpl, err)
			}
			val, err := expr.Eval(ec.xctx())
			if err != nil {
				return "", fmt.Errorf("presentation: attribute template %q: %w", tmpl, err)
			}
			sb.WriteString(xpath.StringOf(val))
			i += end + 1
		case '}':
			if i+1 < len(tmpl) && tmpl[i+1] == '}' {
				sb.WriteByte('}')
				i++
				continue
			}
			return "", fmt.Errorf("presentation: stray } in attribute template %q", tmpl)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String(), nil
}

// ForEach iterates a node-set, executing the body with each node as the
// context node.
type ForEach struct {
	Select *xpath.Expr
	Body   []Instruction
}

func (f ForEach) exec(ec *execCtx, out *xmldom.Element) error {
	val, err := f.Select.Eval(ec.xctx())
	if err != nil {
		return fmt.Errorf("presentation: for-each %s: %w", f.Select, err)
	}
	ns, ok := val.(xpath.NodeSet)
	if !ok {
		return fmt.Errorf("presentation: for-each %s: not a node-set", f.Select)
	}
	for i, n := range ns {
		sub := &execCtx{engine: ec.engine, node: n, pos: i + 1, size: len(ns), depth: ec.depth}
		for _, ins := range f.Body {
			if err := ins.exec(sub, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// If executes its body when the test is true.
type If struct {
	Test *xpath.Expr
	Body []Instruction
}

func (i If) exec(ec *execCtx, out *xmldom.Element) error {
	val, err := i.Test.Eval(ec.xctx())
	if err != nil {
		return fmt.Errorf("presentation: if %s: %w", i.Test, err)
	}
	if !xpath.BoolOf(val) {
		return nil
	}
	for _, ins := range i.Body {
		if err := ins.exec(ec, out); err != nil {
			return err
		}
	}
	return nil
}

// When is one branch of a Choose.
type When struct {
	Test *xpath.Expr
	Body []Instruction
}

// Choose executes the first When whose test is true, else Otherwise.
type Choose struct {
	Whens     []When
	Otherwise []Instruction
}

func (c Choose) exec(ec *execCtx, out *xmldom.Element) error {
	for _, w := range c.Whens {
		val, err := w.Test.Eval(ec.xctx())
		if err != nil {
			return fmt.Errorf("presentation: when %s: %w", w.Test, err)
		}
		if xpath.BoolOf(val) {
			for _, ins := range w.Body {
				if err := ins.exec(ec, out); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, ins := range c.Otherwise {
		if err := ins.exec(ec, out); err != nil {
			return err
		}
	}
	return nil
}

// ApplyTemplates recurses template processing into the selected nodes
// (children by default).
type ApplyTemplates struct {
	// Select chooses the nodes to process; nil means child::node().
	Select *xpath.Expr
}

func (a ApplyTemplates) exec(ec *execCtx, out *xmldom.Element) error {
	if ec.depth >= maxApplyDepth {
		return fmt.Errorf("presentation: apply-templates recursion exceeds %d levels (cyclic rules?)", maxApplyDepth)
	}
	var nodes []xmldom.Node
	if a.Select == nil {
		nodes = childNodesOf(ec.node)
	} else {
		val, err := a.Select.Eval(ec.xctx())
		if err != nil {
			return fmt.Errorf("presentation: apply-templates %s: %w", a.Select, err)
		}
		ns, ok := val.(xpath.NodeSet)
		if !ok {
			return fmt.Errorf("presentation: apply-templates %s: not a node-set", a.Select)
		}
		nodes = ns
	}
	for i, n := range nodes {
		sub := &execCtx{engine: ec.engine, node: n, pos: i + 1, size: len(nodes), depth: ec.depth + 1}
		if err := ec.engine.applyTo(sub, out); err != nil {
			return err
		}
	}
	return nil
}

func childNodesOf(n xmldom.Node) []xmldom.Node {
	switch v := n.(type) {
	case *xmldom.Document:
		return v.Children()
	case *xmldom.Element:
		return v.Children()
	default:
		return nil
	}
}

// Rule is one template rule: a match pattern, a priority and a body.
type Rule struct {
	Match    *xpath.Expr
	Priority float64
	Body     []Instruction
	seq      int
}

// Stylesheet is an ordered set of template rules. The zero value has no
// rules; Apply then runs only the built-in default rules (descend and copy
// text), like an empty XSLT stylesheet.
type Stylesheet struct {
	rules []*Rule
	// src is the XML text ParseStylesheetString read the stylesheet
	// from; empty for stylesheets built in code or from a parsed tree.
	src string
}

// Source returns the XML text the stylesheet was parsed from
// (ParseStylesheetString), or "" when it has none.
func (ss *Stylesheet) Source() string { return ss.src }

// AddRule appends a rule with the given match pattern and priority.
// Among rules that match the same node, the highest priority wins; ties go
// to the most recently added rule, as in XSLT.
func (ss *Stylesheet) AddRule(match string, priority float64, body ...Instruction) error {
	expr, err := xpath.Compile(match)
	if err != nil {
		return fmt.Errorf("presentation: rule pattern %q: %w", match, err)
	}
	ss.rules = append(ss.rules, &Rule{Match: expr, Priority: priority, Body: body, seq: len(ss.rules)})
	return nil
}

// MustAddRule is AddRule that panics, for statically known stylesheets.
func (ss *Stylesheet) MustAddRule(match string, priority float64, body ...Instruction) {
	if err := ss.AddRule(match, priority, body...); err != nil {
		panic(err)
	}
}

// RuleCount returns the number of explicit rules.
func (ss *Stylesheet) RuleCount() int { return len(ss.rules) }

// findRule returns the best matching rule for the node, or nil.
func (ss *Stylesheet) findRule(node xmldom.Node) (*Rule, error) {
	var candidates []*Rule
	for _, r := range ss.rules {
		ok, err := xpath.Matches(r.Match, node)
		if err != nil {
			return nil, err
		}
		if ok {
			candidates = append(candidates, r)
		}
	}
	if len(candidates) == 0 {
		return nil, nil
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		if candidates[i].Priority != candidates[j].Priority {
			return candidates[i].Priority > candidates[j].Priority
		}
		return candidates[i].seq > candidates[j].seq
	})
	return candidates[0], nil
}

// applyTo processes one node: explicit rule if any, else the built-in
// default rules (elements/documents descend; text copies; comments and
// PIs produce nothing).
func (ss *Stylesheet) applyTo(ec *execCtx, out *xmldom.Element) error {
	rule, err := ss.findRule(ec.node)
	if err != nil {
		return err
	}
	if rule != nil {
		for _, ins := range rule.Body {
			if err := ins.exec(ec, out); err != nil {
				return err
			}
		}
		return nil
	}
	switch n := ec.node.(type) {
	case *xmldom.Document, *xmldom.Element:
		return (ApplyTemplates{}).exec(ec, out)
	case *xmldom.Text:
		out.AppendText(n.Data)
		return nil
	default:
		return nil
	}
}

// Apply transforms a source document, returning the output fragment's
// nodes (often a single root element).
func (ss *Stylesheet) Apply(doc *xmldom.Document) ([]xmldom.Node, error) {
	if doc == nil {
		return nil, fmt.Errorf("presentation: nil source document")
	}
	holder := xmldom.NewElement("result-holder")
	ec := &execCtx{engine: ss, node: doc, pos: 1, size: 1}
	if err := ss.applyTo(ec, holder); err != nil {
		return nil, err
	}
	return holder.Children(), nil
}

// ApplyToDocument transforms a source document and requires the result to
// be a single element, returned as a new document.
func (ss *Stylesheet) ApplyToDocument(doc *xmldom.Document) (*xmldom.Document, error) {
	nodes, err := ss.Apply(doc)
	if err != nil {
		return nil, err
	}
	var root *xmldom.Element
	for _, n := range nodes {
		if e, ok := n.(*xmldom.Element); ok {
			if root != nil {
				return nil, fmt.Errorf("presentation: result has multiple root elements")
			}
			root = e
		} else if t, ok := n.(*xmldom.Text); ok && strings.TrimSpace(t.Data) != "" {
			return nil, fmt.Errorf("presentation: result has top-level text %q", t.Data)
		}
	}
	if root == nil {
		return nil, fmt.Errorf("presentation: result has no root element")
	}
	return xmldom.NewDocument(root.Clone()), nil
}
