// Package analysis is a self-contained mirror of the
// golang.org/x/tools/go/analysis API surface that navlint's analyzers
// are written against. The toolchain this repository builds with has no
// module proxy access, so instead of vendoring x/tools we implement the
// small slice of it the suite needs: Analyzer, Pass, Diagnostic and
// per-object facts. The shapes (and field names) deliberately match
// x/tools so the analyzers can be moved onto the real framework by
// changing one import line.
//
// Two drivers run these analyzers (see cmd/navlint): a standalone
// multichecker that loads the whole module and runs the suite over every
// package in dependency order, and a `go vet -vettool` unitchecker that
// analyzes one package per invocation and exchanges facts through vetx
// files. Facts make transitive analyses (the hotpath call-graph walk)
// work identically in both modes: an analyzer summarizes each function
// it sees and exports the summary as a fact; when analysis crosses a
// package boundary it imports the callee's fact instead of its body.
package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the rule; diagnostics are printed as
	// "pos: [name] message" so a failure names the rule that fired.
	Name string
	// Doc is the one-paragraph description `navlint help` prints.
	Doc string
	// FactTypes lists the fact value types the analyzer exports and
	// imports. Every type must be gob-encodable; facts of unlisted
	// types are rejected.
	FactTypes []Fact
	// Run executes the analyzer on one package.
	Run func(*Pass) (any, error)
}

// Fact is a package- or object-associated datum an analyzer exports for
// downstream packages. The marker method keeps arbitrary values out of
// the fact store.
type Fact interface{ AFact() }

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	// Facts is the driver-owned store this pass reads dependency facts
	// from and writes its own into.
	Facts *FactStore
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact associates fact with obj for downstream packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if err := p.Facts.put(p.Analyzer, obj, fact); err != nil {
		panic(fmt.Sprintf("analysis: exporting %T for %v: %v", fact, obj, err))
	}
}

// ImportObjectFact copies the fact associated with obj (by this
// analyzer, possibly in another package) into *fact and reports whether
// one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.Facts.get(p.Analyzer, obj, fact)
}

// ObjectKey is the canonical cross-package name of an object: the
// types.Func full name for functions and methods (e.g.
// "(*repro/internal/core.App).RenderPageCachedStat"), package path + "." +
// name otherwise. It is identical whether the object was type-checked
// from source or read back from export data, which is what lets facts
// written by one driver mode be read by the other.
func ObjectKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if orig := f.Origin(); orig != nil {
			f = orig // generic instantiations share the origin's facts
		}
		return f.FullName()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

// factKey identifies one stored fact.
type factKey struct {
	Analyzer string
	Object   string
	Type     string
}

// FactStore holds gob-encoded facts keyed by (analyzer, object, fact
// type). The standalone driver keeps one store for the whole run; the
// unitchecker driver fills it from the dependency vetx files and
// serializes it back out for the packages that import this one.
type FactStore struct {
	m map[factKey][]byte
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{m: map[factKey][]byte{}} }

func factTypeName(fact Fact) string { return reflect.TypeOf(fact).String() }

func (s *FactStore) put(a *Analyzer, obj types.Object, fact Fact) error {
	if err := checkFactType(a, fact); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(reflect.ValueOf(fact).Elem()); err != nil {
		return err
	}
	s.m[factKey{a.Name, ObjectKey(obj), factTypeName(fact)}] = buf.Bytes()
	return nil
}

func (s *FactStore) get(a *Analyzer, obj types.Object, fact Fact) bool {
	raw, ok := s.m[factKey{a.Name, ObjectKey(obj), factTypeName(fact)}]
	if !ok {
		return false
	}
	if err := gob.NewDecoder(bytes.NewReader(raw)).DecodeValue(reflect.ValueOf(fact).Elem()); err != nil {
		return false
	}
	return true
}

func checkFactType(a *Analyzer, fact Fact) error {
	name := factTypeName(fact)
	for _, ft := range a.FactTypes {
		if factTypeName(ft) == name {
			return nil
		}
	}
	return fmt.Errorf("fact type %s not declared in %s.FactTypes", name, a.Name)
}

// wireFact is the serialized form of one fact in a vetx file.
type wireFact struct {
	Analyzer string
	Object   string
	Type     string
	Data     []byte
}

// Encode serializes the whole store (a vetx payload).
func (s *FactStore) Encode() ([]byte, error) {
	facts := make([]wireFact, 0, len(s.m))
	for k, v := range s.m {
		facts = append(facts, wireFact{k.Analyzer, k.Object, k.Type, v})
	}
	// Deterministic output keeps vetx files cache-stable.
	sort.Slice(facts, func(i, j int) bool {
		a, b := facts[i], facts[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Type < b.Type
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(facts); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Merge decodes a vetx payload produced by Encode into the store.
func (s *FactStore) Merge(raw []byte) error {
	var facts []wireFact
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&facts); err != nil {
		return err
	}
	for _, f := range facts {
		s.m[factKey{f.Analyzer, f.Object, f.Type}] = f.Data
	}
	return nil
}
