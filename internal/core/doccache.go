package core

import (
	"bytes"
	"strconv"
	"sync"
)

// docEntry is one serialized repository document with its precomputed
// validator and Content-Length, so the serve path writes headers
// without formatting anything.
type docEntry struct {
	body []byte
	etag string
	clen string
}

// docCache holds the serialized form of every repository document
// (links.xml and the node data files) with its strong ETag, so serving a
// document costs a map lookup instead of a tree serialization and a body
// hash per request. rebuild reseeds it wholesale; EditDocument's
// content-only path replaces single entries (put).
type docCache struct {
	mu      sync.RWMutex
	entries map[string]docEntry
}

func newDocCache() *docCache { return &docCache{entries: map[string]docEntry{}} }

// get returns the cached serialization of uri.
func (dc *docCache) get(uri string) (docEntry, bool) {
	dc.mu.RLock()
	defer dc.mu.RUnlock()
	e, ok := dc.entries[uri]
	return e, ok
}

// diff reports which documents of the incoming serialization differ from
// the cached one — new, changed or deleted uris.
func (dc *docCache) diff(serialized map[string][]byte) map[string]bool {
	dc.mu.RLock()
	defer dc.mu.RUnlock()
	changed := map[string]bool{}
	for uri, body := range serialized {
		if e, ok := dc.entries[uri]; !ok || !bytes.Equal(e.body, body) {
			changed[uri] = true
		}
	}
	for uri := range dc.entries {
		if _, ok := serialized[uri]; !ok {
			changed[uri] = true
		}
	}
	return changed
}

// reseed replaces the cache with the given serialization. Entries whose
// bytes did not change keep their previous ETag — an unchanged document
// keeps validating across model mutations — while changed ones are
// stamped under gen.
func (dc *docCache) reseed(serialized map[string][]byte, changed map[string]bool, gen uint64) {
	entries := make(map[string]docEntry, len(serialized))
	dc.mu.Lock()
	defer dc.mu.Unlock()
	for uri, body := range serialized {
		if !changed[uri] {
			if e, ok := dc.entries[uri]; ok {
				entries[uri] = e
				continue
			}
		}
		entries[uri] = docEntry{body: body, etag: strongETag(gen, body), clen: strconv.Itoa(len(body))}
	}
	dc.entries = entries
}

// put replaces one entry with a body changed under gen.
func (dc *docCache) put(uri string, body []byte, gen uint64) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	dc.entries[uri] = docEntry{body: body, etag: strongETag(gen, body), clen: strconv.Itoa(len(body))}
}
