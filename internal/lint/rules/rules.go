// Package rules is the single place the repository's architectural
// invariants are written down as data: which standard-library calls are
// hot-path sins, which core methods form the mutation plane, and which
// packages may import which. The analyzers in internal/lint interpret
// these tables; changing an invariant is an edit here, not in analyzer
// logic.
package rules

// Sin classifies why a call is forbidden on a //repro:hotpath function.
type Sin uint8

const (
	// SinFormat is reflective formatting (fmt.Sprintf and family):
	// interface boxing plus a scan of the format string, on a path
	// budgeted in nanoseconds.
	SinFormat Sin = iota + 1
	// SinJSON is an encoding/json marshal, unmarshal or codec
	// construction — reflection and allocation by design.
	SinJSON
	// SinTimeNow is a clock read; hot paths take time from an injected
	// func() time.Time (testable, and elidable) rather than the global
	// clock. Suppress at genuinely required sites with //repro:allow.
	SinTimeNow
	// SinWriteLock is acquiring an RWMutex write lock: writers stall
	// every concurrent reader of the serve path. Plain sync.Mutex locks
	// (sharded, short) are deliberately not sins.
	SinWriteLock
	// SinAlloc is a known-escaping construct: stdlib helpers whose
	// contract forces a heap allocation per call (strings.Split,
	// strconv.Itoa, hash constructors, buffer constructors, goroutine
	// launches).
	SinAlloc
)

// String names the sin for diagnostics.
func (s Sin) String() string {
	switch s {
	case SinFormat:
		return "reflective formatting"
	case SinJSON:
		return "JSON encoding/decoding"
	case SinTimeNow:
		return "global clock read"
	case SinWriteLock:
		return "RWMutex write lock"
	case SinAlloc:
		return "known-escaping allocation"
	}
	return "unknown sin"
}

// StdlibSins models the standard library for the hotpath walk: calls to
// these functions (keyed by types.Func full name) are sins; stdlib
// functions not listed are assumed clean, since the walk does not
// descend into stdlib bodies. The table errs toward the calls that have
// actually appeared on — or near — this repository's hot paths.
var StdlibSins = map[string]Sin{
	// fmt: everything that formats.
	"fmt.Sprintf":  SinFormat,
	"fmt.Sprint":   SinFormat,
	"fmt.Sprintln": SinFormat,
	"fmt.Errorf":   SinFormat,
	"fmt.Fprintf":  SinFormat,
	"fmt.Fprint":   SinFormat,
	"fmt.Fprintln": SinFormat,
	"fmt.Printf":   SinFormat,
	"fmt.Print":    SinFormat,
	"fmt.Println":  SinFormat,
	"fmt.Appendf":  SinFormat,
	"fmt.Append":   SinFormat,
	"fmt.Appendln": SinFormat,

	// encoding/json: codecs and their constructors.
	"encoding/json.Marshal":                     SinJSON,
	"encoding/json.MarshalIndent":               SinJSON,
	"encoding/json.Unmarshal":                   SinJSON,
	"encoding/json.NewEncoder":                  SinJSON,
	"encoding/json.NewDecoder":                  SinJSON,
	"(*encoding/json.Encoder).Encode":           SinJSON,
	"(*encoding/json.Decoder).Decode":           SinJSON,
	"(encoding/json.Marshaler).MarshalJSON":     SinJSON,
	"(*encoding/json.RawMessage).UnmarshalJSON": SinJSON,

	// The global clock. time.Since is time.Now in a trenchcoat.
	"time.Now":   SinTimeNow,
	"time.Since": SinTimeNow,

	// Write locks (also matched structurally by receiver type, so
	// embedded RWMutexes are caught; listed here for completeness).
	"(*sync.RWMutex).Lock": SinWriteLock,

	// Known-escaping constructs.
	"strings.Split":         SinAlloc,
	"strings.SplitN":        SinAlloc,
	"strings.SplitAfter":    SinAlloc,
	"strings.Fields":        SinAlloc,
	"strings.Join":          SinAlloc,
	"strings.Repeat":        SinAlloc,
	"strings.ReplaceAll":    SinAlloc,
	"strings.ToLower":       SinAlloc,
	"strings.ToUpper":       SinAlloc,
	"strconv.Itoa":          SinAlloc,
	"strconv.FormatInt":     SinAlloc,
	"strconv.FormatUint":    SinAlloc,
	"strconv.FormatFloat":   SinAlloc,
	"strconv.AppendQuote":   SinAlloc,
	"strconv.Quote":         SinAlloc,
	"hash/fnv.New32":        SinAlloc,
	"hash/fnv.New32a":       SinAlloc,
	"hash/fnv.New64":        SinAlloc,
	"hash/fnv.New64a":       SinAlloc,
	"hash/fnv.New128":       SinAlloc,
	"hash/fnv.New128a":      SinAlloc,
	"hash/maphash.Bytes":    SinAlloc,
	"bytes.NewBuffer":       SinAlloc,
	"bytes.NewBufferString": SinAlloc,
	"bytes.Split":           SinAlloc,
	"bytes.Join":            SinAlloc,
	"regexp.Compile":        SinAlloc,
	"regexp.MustCompile":    SinAlloc,
	"sort.Strings":          SinAlloc,
	"sort.Slice":            SinAlloc,
}

// MutationPlane lists, per receiver type (keyed by package path +
// "." + type name), the methods that mutate the woven model or the
// conceptual store. The planes analyzer confines calls to them inside
// ServePlanePkg to //repro:plane(control) files/functions; the locks
// analyzer reports calling one while a read lock on the same receiver
// type is held (the mutation takes the write lock — self-deadlock).
var MutationPlane = map[string][]string{
	"repro/internal/core.App": {
		"SetAccessStructures",
		"SetStylesheet",
		"EditDocument",
		// Replication-plane entry points ride the same confinement: the
		// serve path has no business exporting snapshots either.
		"ExportSnapshot",
	},
	"repro/internal/conceptual.Store": {
		"SetAttr",
		"SetAttrs",
	},
}

// ServePlanePkg is the package whose files default to the serve plane:
// calls to MutationPlane methods there are confined to files or
// functions marked //repro:plane(control).
const ServePlanePkg = "repro/internal/server"

// ImportRule forbids a package (and its subtree, with a trailing
// "/...") from importing any of the listed packages/subtrees.
type ImportRule struct {
	Pkg    string
	Forbid []string
}

// upperPlanes is what the foundation layers must never reach back into.
var upperPlanes = []string{
	"repro/internal/server",
	"repro/internal/api",
	"repro/internal/core",
	"repro/internal/analytics",
	"repro/client",
	"repro/cmd/...",
}

// Layering is the import lattice: the navigational aspect and the
// layers below it must not know about the application core, the serving
// stack or the control plane. Several of these edges would also be
// import cycles today; the rules keep them failing with a named reason
// if the cycle is ever broken by moving code, and catch the acyclic
// ones (e.g. analytics → core) the compiler would happily accept.
var Layering = []ImportRule{
	{Pkg: "repro/internal/navigation", Forbid: upperPlanes},
	{Pkg: "repro/internal/conceptual", Forbid: upperPlanes},
	{Pkg: "repro/internal/presentation", Forbid: upperPlanes},
	{Pkg: "repro/internal/aspect", Forbid: upperPlanes},
	{Pkg: "repro/internal/storage", Forbid: upperPlanes},
	{Pkg: "repro/internal/xmldom", Forbid: upperPlanes},
	{Pkg: "repro/internal/xlink", Forbid: upperPlanes},
	{Pkg: "repro/internal/xpath", Forbid: upperPlanes},
	{Pkg: "repro/internal/xpointer", Forbid: upperPlanes},
	{Pkg: "repro/internal/difflib", Forbid: upperPlanes},
	// obs is infrastructure every layer may instrument with; it must
	// never know who uses it.
	{Pkg: "repro/internal/obs", Forbid: upperPlanes},
	// analytics derives structures for core to install, but must not
	// reach core (or the server) itself — the adapt loop wires them.
	{Pkg: "repro/internal/analytics", Forbid: []string{
		"repro/internal/server", "repro/internal/api",
		"repro/internal/core", "repro/client", "repro/cmd/...",
	}},
	// core is the woven application; the serving stack and wire layer
	// sit above it.
	{Pkg: "repro/internal/core", Forbid: []string{
		"repro/internal/server", "repro/internal/api", "repro/client", "repro/cmd/...",
	}},
	// The wire-types package stays pure: no server, no core.
	{Pkg: "repro/internal/api", Forbid: []string{
		"repro/internal/server", "repro/internal/core", "repro/client", "repro/cmd/...",
	}},
	// The client speaks the wire protocol only.
	{Pkg: "repro/client", Forbid: []string{
		"repro/internal/server", "repro/internal/core", "repro/cmd/...",
	}},
	// The load harness sees only what a browser sees: the wire client
	// and HTTP. Importing the serving stack, the core, or even the
	// navigation package would make its history mirror a tautology
	// instead of an independent check of the server's semantics.
	{Pkg: "repro/internal/load", Forbid: []string{
		"repro/internal/server", "repro/internal/core", "repro/internal/navigation",
		"repro/internal/analytics", "repro/cmd/...",
	}},
}
