package presentation

import (
	"fmt"
	"strconv"

	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// StyleNamespace is the namespace of stylesheet instruction elements in
// the XML form, playing the role XSL's namespace plays in the paper's
// data/presentation split.
const StyleNamespace = "urn:repro:style"

// ParseStylesheet reads the XML form of a stylesheet:
//
//	<s:stylesheet xmlns:s="urn:repro:style">
//	  <s:template match="painting" priority="1">
//	    <html><body>
//	      <h1><s:value-of select="title"/></h1>
//	      <s:apply-templates/>
//	    </body></html>
//	  </s:template>
//	</s:stylesheet>
//
// Elements in the style namespace are instructions (template, value-of,
// apply-templates, for-each, if, choose/when/otherwise, text); everything
// else is a literal result element whose attributes are attribute value
// templates.
func ParseStylesheet(doc *xmldom.Document) (*Stylesheet, error) {
	root := doc.Root()
	if root == nil || root.Name.Space != StyleNamespace || root.Name.Local != "stylesheet" {
		return nil, fmt.Errorf("presentation: root must be {%s}stylesheet", StyleNamespace)
	}
	ss := &Stylesheet{}
	for _, tmpl := range root.ChildElements() {
		if tmpl.Name.Space != StyleNamespace || tmpl.Name.Local != "template" {
			return nil, fmt.Errorf("presentation: unexpected element <%s> in stylesheet", tmpl.Name.Local)
		}
		match := tmpl.AttrValue("match")
		if match == "" {
			return nil, fmt.Errorf("presentation: template without match attribute")
		}
		priority := 0.0
		if p := tmpl.AttrValue("priority"); p != "" {
			f, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return nil, fmt.Errorf("presentation: template %q: bad priority %q", match, p)
			}
			priority = f
		}
		body, err := parseBody(tmpl)
		if err != nil {
			return nil, fmt.Errorf("presentation: template %q: %w", match, err)
		}
		if err := ss.AddRule(match, priority, body...); err != nil {
			return nil, err
		}
	}
	return ss, nil
}

// ParseStylesheetString is ParseStylesheet over a source string. The
// stylesheet keeps src, so the exact artifact can be served back
// (Source).
func ParseStylesheetString(src string) (*Stylesheet, error) {
	doc, err := xmldom.ParseString(src)
	if err != nil {
		return nil, fmt.Errorf("presentation: stylesheet XML: %w", err)
	}
	ss, err := ParseStylesheet(doc)
	if err != nil {
		return nil, err
	}
	ss.src = src
	return ss, nil
}

// parseBody converts an element's children into instructions.
func parseBody(parent *xmldom.Element) ([]Instruction, error) {
	var out []Instruction
	for _, child := range parent.Children() {
		switch n := child.(type) {
		case *xmldom.Text:
			// Whitespace-only runs between instructions are layout.
			if trimmed := n.Data; len(trimmed) > 0 {
				if isAllSpace(trimmed) {
					continue
				}
				out = append(out, Text{Data: trimmed})
			}
		case *xmldom.Element:
			ins, err := parseInstruction(n)
			if err != nil {
				return nil, err
			}
			out = append(out, ins)
		}
	}
	return out, nil
}

func isAllSpace(s string) bool {
	for _, r := range s {
		if r != ' ' && r != '\t' && r != '\n' && r != '\r' {
			return false
		}
	}
	return true
}

func parseInstruction(e *xmldom.Element) (Instruction, error) {
	if e.Name.Space != StyleNamespace {
		// Literal result element.
		var attrs []AttrTemplate
		for _, a := range e.Attrs() {
			if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
				continue
			}
			attrs = append(attrs, AttrTemplate{Name: a.Name.Local, Value: a.Value})
		}
		body, err := parseBody(e)
		if err != nil {
			return nil, err
		}
		return Elem{Name: e.Name.Local, Attrs: attrs, Body: body}, nil
	}
	switch e.Name.Local {
	case "value-of":
		expr, err := compileAttr(e, "select", true)
		if err != nil {
			return nil, err
		}
		return ValueOf{Select: expr}, nil
	case "apply-templates":
		expr, err := compileAttr(e, "select", false)
		if err != nil {
			return nil, err
		}
		return ApplyTemplates{Select: expr}, nil
	case "for-each":
		expr, err := compileAttr(e, "select", true)
		if err != nil {
			return nil, err
		}
		body, err := parseBody(e)
		if err != nil {
			return nil, err
		}
		return ForEach{Select: expr, Body: body}, nil
	case "if":
		expr, err := compileAttr(e, "test", true)
		if err != nil {
			return nil, err
		}
		body, err := parseBody(e)
		if err != nil {
			return nil, err
		}
		return If{Test: expr, Body: body}, nil
	case "choose":
		var c Choose
		for _, branch := range e.ChildElements() {
			if branch.Name.Space != StyleNamespace {
				return nil, fmt.Errorf("unexpected <%s> in choose", branch.Name.Local)
			}
			switch branch.Name.Local {
			case "when":
				expr, err := compileAttr(branch, "test", true)
				if err != nil {
					return nil, err
				}
				body, err := parseBody(branch)
				if err != nil {
					return nil, err
				}
				c.Whens = append(c.Whens, When{Test: expr, Body: body})
			case "otherwise":
				body, err := parseBody(branch)
				if err != nil {
					return nil, err
				}
				c.Otherwise = body
			default:
				return nil, fmt.Errorf("unexpected instruction <%s> in choose", branch.Name.Local)
			}
		}
		if len(c.Whens) == 0 {
			return nil, fmt.Errorf("choose without when branches")
		}
		return c, nil
	case "text":
		return Text{Data: e.StringValue()}, nil
	default:
		return nil, fmt.Errorf("unknown instruction <%s>", e.Name.Local)
	}
}

func compileAttr(e *xmldom.Element, attr string, required bool) (*xpath.Expr, error) {
	src := e.AttrValue(attr)
	if src == "" {
		if required {
			return nil, fmt.Errorf("<%s> requires %s attribute", e.Name.Local, attr)
		}
		return nil, nil
	}
	expr, err := xpath.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("<%s> %s=%q: %w", e.Name.Local, attr, src, err)
	}
	return expr, nil
}
