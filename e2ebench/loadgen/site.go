package loadgen

import (
	"context"
	"strings"
	"time"

	"repro/internal/load"
)

// hubNode is the node id the server reports for a context's entry page.
const hubNode = "_index"

// Site is every walkable context of the server under test, as the
// load harness reads it from the control plane.
type Site = load.Site

// Entry is one navigation-history position as the server reports it on
// GET /history.
type Entry = load.Entry

// FetchSite reads the resolved contexts from GET /api/v1/contexts.
func FetchSite(addr, token string) (*Site, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return load.FetchSite(ctx, "http://"+addr, token)
}

// contextOf returns the site's context called name, or nil.
func contextOf(s *Site, name string) *load.SiteContext {
	for i := range s.Contexts {
		if s.Contexts[i].Name == name {
			return &s.Contexts[i]
		}
	}
	return nil
}

// PagePath maps a history position to its page URL path: context
// segments are ":"-separated in names and "/"-separated in paths, and
// the hub is index.html.
func PagePath(e Entry) string {
	seg := strings.ReplaceAll(e.Context, ":", "/")
	if e.NodeID == hubNode {
		return "/" + seg + "/index.html"
	}
	return "/" + seg + "/" + e.NodeID + ".html"
}

// parsePagePath inverts PagePath on a redirect Location.
func parsePagePath(path string) (Entry, bool) {
	p, ok := strings.CutSuffix(strings.TrimPrefix(path, "/"), ".html")
	if !ok {
		return Entry{}, false
	}
	i := strings.LastIndexByte(p, '/')
	if i <= 0 || i == len(p)-1 {
		return Entry{}, false
	}
	node := p[i+1:]
	if node == "index" {
		node = hubNode
	}
	return Entry{Context: strings.ReplaceAll(p[:i], "/", ":"), NodeID: node}, true
}
