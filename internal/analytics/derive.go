package analytics

import (
	"sort"
	"strings"

	"repro/internal/navigation"
)

// Derivation defaults; override through Config.
const (
	// DefaultMinHops is the per-context sample floor: contexts with
	// fewer recorded hops keep their authored structure rather than
	// adapt to noise.
	DefaultMinHops = 50
	// DefaultLandmarkShare is the visit share above which a node is
	// promoted to an in-context landmark. Vinson's guidelines ask for a
	// small set of highly salient landmarks, so the threshold is high
	// enough that only genuinely dominant nodes qualify.
	DefaultLandmarkShare = 0.25
	// DefaultMaxLandmarks caps promotions per context — a landmark bar
	// with a dozen entries distinguishes nothing.
	DefaultMaxLandmarks = 3
)

// Config tunes the derivation layer. Zero values mean "use the
// default", so the sentinels for turning a knob all the way down are
// explicit: MinHops 1 is the lowest real floor (a zero-hop context
// never derives anyway), a negative LandmarkShare promotes every
// visited node, a negative MaxLandmarks lifts the promotion cap, and
// LandmarkShare of 1 or more disables promotion.
type Config struct {
	// MinHops is the per-context sample floor (0 = DefaultMinHops;
	// use 1 for no effective floor).
	MinHops uint64
	// LandmarkShare is the visit-share promotion threshold
	// (0 = DefaultLandmarkShare; negative promotes everything visited;
	// 1 or more disables promotion).
	LandmarkShare float64
	// MaxLandmarks caps promotions per context
	// (0 = DefaultMaxLandmarks; negative = no cap).
	MaxLandmarks int
	// Circular closes each derived tour's Next/Prev ring.
	Circular bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MinHops == 0 {
		c.MinHops = DefaultMinHops
	}
	if c.LandmarkShare == 0 {
		c.LandmarkShare = DefaultLandmarkShare
	}
	if c.MaxLandmarks == 0 {
		c.MaxLandmarks = DefaultMaxLandmarks
	}
	return c
}

// ContextInfo names one resolvable context the deriver may compile a
// plan for: its instance name, the family SetAccessStructures swaps, the
// authored member order (the fallback ordering for unseen nodes), and
// the authored access structure (served verbatim to zero-traffic
// siblings of an adapted context).
type ContextInfo struct {
	Name    string
	Family  string
	Members []string
	// Access is the family's authored structure (nil when unknown —
	// the derived tour then falls back to an indexed guided tour).
	Access navigation.AccessStructure
}

// Infos lists the derivable contexts of a live resolved model. An
// already-adapted family reports the structure it was originally
// authored with, so repeated derivation cycles never nest tours.
func Infos(rm *navigation.ResolvedModel) []ContextInfo {
	out := make([]ContextInfo, 0, len(rm.Contexts))
	for _, rc := range rm.Contexts {
		members := make([]string, len(rc.Members))
		for i, m := range rc.Members {
			members[i] = m.ID()
		}
		out = append(out, ContextInfo{
			Name:    rc.Name,
			Family:  rc.Def.Name,
			Members: members,
			Access:  navigation.BaseAccess(rc.Def.Access),
		})
	}
	return out
}

// InfosFromLinkbase lists derivable contexts from parsed linkbase
// contexts — the offline path (cmd/navstats), where the site definition
// comes out of a stored snapshot rather than a live model. The family
// is the instance name's prefix before ":" (grouped families encode
// their group that way; ungrouped names are their own family).
func InfosFromLinkbase(lcs []*navigation.LinkbaseContext) []ContextInfo {
	out := make([]ContextInfo, 0, len(lcs))
	for _, lc := range lcs {
		family := lc.Name
		if i := strings.IndexByte(family, ':'); i >= 0 {
			family = family[:i]
		}
		// The linkbase names the access kind; kinds it cannot rebuild
		// (including "adaptive-tour" from an already-adapted snapshot)
		// leave Access nil and the derived tour uses its default.
		access, err := navigation.AccessByKind(lc.AccessKind)
		if err != nil {
			access = nil
		}
		out = append(out, ContextInfo{
			Name:    lc.Name,
			Family:  family,
			Members: append([]string(nil), lc.Order...),
			Access:  access,
		})
	}
	return out
}

// Derive compiles the transition graph into adaptive access structures,
// one per context family that has at least one context with enough
// traffic, keyed by family name — ready to hand to SetAccessStructures,
// whose rebuild diff then computes the invalidation radius of the swap.
//
// Per qualifying context the plan holds:
//
//   - a "popular next" order: starting from the most frequent entry
//     node, repeatedly follow the most-traversed outgoing transition to
//     an unplaced member (falling back to the most-visited unplaced
//     member when a trail goes cold) — the guided tour visitors were
//     already taking;
//   - landmark promotion: members whose visit share clears
//     Config.LandmarkShare become in-context landmarks, linked from
//     every member page;
//   - dead-link demotion: members no visitor ever reached are dropped
//     from the Next/Prev chain (they stay reachable from the hub).
func Derive(g *Graph, ctxs []ContextInfo, cfg Config) map[string]*navigation.AdaptiveTour {
	cfg = cfg.withDefaults()
	tours := map[string]*navigation.AdaptiveTour{}
	for _, info := range ctxs {
		cg := g.Contexts[info.Name]
		if cg == nil || cg.Hops < cfg.MinHops {
			continue
		}
		plan, ok := derivePlan(cg, info.Members, cfg)
		if !ok {
			continue
		}
		tour := tours[info.Family]
		if tour == nil {
			tour = &navigation.AdaptiveTour{
				Plans:    map[string]navigation.TourPlan{},
				Fallback: info.Access,
				Circular: cfg.Circular,
			}
			tours[info.Family] = tour
		}
		tour.Plans[info.Name] = plan
	}
	return tours
}

// derivePlan compiles one context's plan. members is the authored
// order; only observed member nodes shape the derived order, and the
// hub pseudo-node never appears in it.
func derivePlan(cg *ContextGraph, members []string, cfg Config) (navigation.TourPlan, bool) {
	pos := make(map[string]int, len(members))
	for i, m := range members {
		pos[m] = i
	}
	var alive []string
	for _, m := range members {
		if cg.Visits[m] > 0 {
			alive = append(alive, m)
		}
	}
	if len(alive) == 0 {
		return navigation.TourPlan{}, false
	}

	// Walk the popular-next chain: enter where visitors enter, follow
	// what they follow, restart at the hottest unplaced member when the
	// observed trail goes cold.
	placed := make(map[string]bool, len(alive))
	order := make([]string, 0, len(members))
	cur := pickMax(alive, placed, cg.Entries, pos)
	if cg.Entries[cur] == 0 {
		cur = pickMax(alive, placed, cg.Visits, pos)
	}
	for cur != "" {
		order = append(order, cur)
		placed[cur] = true
		next := ""
		var best uint64
		for to, c := range cg.next[cur] {
			if placed[to] || to == navigation.HubID {
				continue
			}
			if _, member := pos[to]; !member {
				continue
			}
			if c > best || (c == best && next != "" && pos[to] < pos[next]) {
				next, best = to, c
			}
		}
		if next == "" {
			next = pickMax(alive, placed, cg.Visits, pos)
		}
		cur = next
	}

	// Demote the never-visited to the end of the roll, out of the chain.
	var dead []string
	for _, m := range members {
		if cg.Visits[m] == 0 {
			order = append(order, m)
			dead = append(dead, m)
		}
	}

	return navigation.TourPlan{
		Order:     order,
		Landmarks: promote(alive, cg, cfg, pos),
		Dead:      dead,
	}, true
}

// pickMax returns the unplaced candidate with the highest count (ties
// to the earlier authored position), or "" when none remain.
func pickMax(candidates []string, placed map[string]bool, counts map[string]uint64, pos map[string]int) string {
	best := ""
	var bestCount uint64
	for _, c := range candidates {
		if placed[c] {
			continue
		}
		n := counts[c]
		if best == "" || n > bestCount || (n == bestCount && pos[c] < pos[best]) {
			best, bestCount = c, n
		}
	}
	return best
}

// promote selects the members whose visit share clears the landmark
// threshold, hottest first, capped at MaxLandmarks.
func promote(alive []string, cg *ContextGraph, cfg Config, pos map[string]int) []string {
	if cfg.LandmarkShare >= 1 {
		return nil
	}
	var total uint64
	for _, m := range alive {
		total += cg.Visits[m]
	}
	if total == 0 {
		return nil
	}
	var out []string
	for _, m := range alive {
		if float64(cg.Visits[m])/float64(total) >= cfg.LandmarkShare {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		vi, vj := cg.Visits[out[i]], cg.Visits[out[j]]
		if vi != vj {
			return vi > vj
		}
		return pos[out[i]] < pos[out[j]]
	})
	if cfg.MaxLandmarks > 0 && len(out) > cfg.MaxLandmarks {
		out = out[:cfg.MaxLandmarks]
	}
	return out
}
