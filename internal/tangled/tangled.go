// Package tangled implements the baseline the paper argues against: the
// hand-written web site of Figures 3–4 where navigation markup is embedded
// directly in every page. It also provides the change-cost analyzer that
// quantifies the paper's §5 claim — that a conceptually simple access-
// structure change (Index to Indexed Guided Tour) forces edits across
// every page of every affected context in the tangled implementation,
// while the separated implementation changes one declaration line.
package tangled

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/difflib"
	"repro/internal/navigation"
)

// GenerateSite produces the tangled site for a resolved navigational
// model: every page carries its navigation inline, exactly as a 2002
// hand-maintained HTML site would. Page paths match package core's so the
// two approaches are comparable page for page.
func GenerateSite(rm *navigation.ResolvedModel) map[string]string {
	pages := map[string]string{}
	for _, rc := range rm.Contexts {
		dir := strings.ReplaceAll(rc.Name, ":", "/")
		if rc.Def.Access.HasHub() {
			pages[dir+"/index.html"] = hubPage(rc)
		}
		for i, m := range rc.Members {
			pages[dir+"/"+m.ID()+".html"] = memberPage(rc, i)
		}
	}
	return pages
}

// hubPage hand-writes a context's index page.
func hubPage(rc *navigation.ResolvedContext) string {
	var sb strings.Builder
	sb.WriteString("<html>\n<head>\n")
	fmt.Fprintf(&sb, "<title>Index of %s</title>\n", rc.Name)
	sb.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&sb, "<h1>Index of %s</h1>\n", rc.Name)
	sb.WriteString("<ul>\n")
	for _, m := range rc.Members {
		fmt.Fprintf(&sb, "<li><a href=\"%s.html\">%s</a></li>\n", m.ID(), htmlEscape(m.Title()))
	}
	sb.WriteString("</ul>\n</body>\n</html>\n")
	return sb.String()
}

// memberPage hand-writes one member page; this is where the tangling
// lives — the switch on the access structure is repeated in every page's
// generation, and its output is baked into the page text.
func memberPage(rc *navigation.ResolvedContext, idx int) string {
	m := rc.Members[idx]
	var sb strings.Builder
	sb.WriteString("<html>\n<head>\n")
	fmt.Fprintf(&sb, "<title>%s</title>\n", htmlEscape(m.Title()))
	sb.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&sb, "<h1>%s</h1>\n", htmlEscape(m.Title()))
	sb.WriteString("<table class=\"attributes\">\n")
	for _, attr := range m.AttrNames() {
		fmt.Fprintf(&sb, "<tr><td>%s</td><td>%s</td></tr>\n", attr, htmlEscape(m.Attr(attr)))
	}
	sb.WriteString("</table>\n")

	// The embedded navigation: which anchors appear depends on the
	// access structure, re-decided in every page.
	access := rc.Def.Access
	circularNext := idx + 1
	circularPrev := idx - 1
	switch access.Kind() {
	case "index":
		sb.WriteString("<a href=\"index.html\">Index</a>\n")
	case "menu":
		// A menu adds no back links to member pages.
	case "guided-tour":
		writeTourAnchors(&sb, rc, idx, circularNext, circularPrev, isCircular(access))
	case "indexed-guided-tour":
		sb.WriteString("<a href=\"index.html\">Index</a>\n")
		writeTourAnchors(&sb, rc, idx, circularNext, circularPrev, isCircular(access))
	}
	sb.WriteString("</body>\n</html>\n")
	return sb.String()
}

func isCircular(a navigation.AccessStructure) bool {
	switch t := a.(type) {
	case navigation.GuidedTour:
		return t.Circular
	case navigation.IndexedGuidedTour:
		return t.Circular
	default:
		return false
	}
}

func writeTourAnchors(sb *strings.Builder, rc *navigation.ResolvedContext, idx, next, prev int, circular bool) {
	n := len(rc.Members)
	if prev < 0 && circular {
		prev = n - 1
	}
	if next >= n && circular {
		next = 0
	}
	if prev >= 0 && prev < n && prev != idx {
		fmt.Fprintf(sb, "<a href=\"%s.html\">Previous</a>\n", rc.Members[prev].ID())
	}
	if next < n && next >= 0 && next != idx {
		fmt.Fprintf(sb, "<a href=\"%s.html\">Next</a>\n", rc.Members[next].ID())
	}
}

// htmlEscaper is built once; a strings.Replacer is safe for concurrent
// use.
var htmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func htmlEscape(s string) string { return htmlEscaper.Replace(s) }

// ChangeCost quantifies the difference between two versions of a site
// (or of any path->text artifact set).
type ChangeCost struct {
	// Files is the number of files present in either version.
	Files int
	// FilesChanged counts files whose content differs.
	FilesChanged int
	// FilesAdded and FilesRemoved count files present in only one side.
	FilesAdded   int
	FilesRemoved int
	// LinesAdded and LinesRemoved total the line-level edits.
	LinesAdded   int
	LinesRemoved int
}

// TotalLineEdits returns added plus removed lines.
func (c ChangeCost) TotalLineEdits() int { return c.LinesAdded + c.LinesRemoved }

// Changed reports whether any file differed.
func (c ChangeCost) Changed() bool {
	return c.FilesChanged+c.FilesAdded+c.FilesRemoved > 0
}

// String renders the cost as an experiment table row fragment.
func (c ChangeCost) String() string {
	return fmt.Sprintf("files=%d changed=%d (+%d/-%d lines)",
		c.Files, c.FilesChanged+c.FilesAdded+c.FilesRemoved, c.LinesAdded, c.LinesRemoved)
}

// CompareSites diffs two artifact sets and tallies the edit cost.
func CompareSites(before, after map[string]string) ChangeCost {
	var cost ChangeCost
	seen := map[string]bool{}
	for p := range before {
		seen[p] = true
	}
	for p := range after {
		seen[p] = true
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	cost.Files = len(paths)
	for _, p := range paths {
		b, inBefore := before[p]
		a, inAfter := after[p]
		switch {
		case !inBefore:
			cost.FilesAdded++
			cost.LinesAdded += len(difflib.Lines(a))
		case !inAfter:
			cost.FilesRemoved++
			cost.LinesRemoved += len(difflib.Lines(b))
		case a != b:
			cost.FilesChanged++
			st := difflib.DiffStrings(b, a)
			cost.LinesAdded += st.Added
			cost.LinesRemoved += st.Removed
		}
	}
	return cost
}
