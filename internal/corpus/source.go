package corpus

import (
	"iter"
	"strings"
)

// Source is a stream of golden blueprints. The fixed hand-written catalog
// and the procedural generator both implement it, so the augmentation
// pipeline consumes one abstraction regardless of where designs come from.
//
// Implementations must be deterministic: every call to Blueprints yields
// the same designs in the same order, and every yielded blueprint is a
// fresh AST the caller may mutate freely.
type Source interface {
	// Name identifies the source in logs and statistics.
	Name() string
	// Blueprints iterates the golden designs.
	Blueprints() iter.Seq[*Blueprint]
}

// CatalogSource serves the fixed hand-written catalog, building each
// blueprint just before it is yielded.
type CatalogSource struct{}

// Name implements Source.
func (CatalogSource) Name() string { return "catalog" }

// Blueprints implements Source.
func (CatalogSource) Blueprints() iter.Seq[*Blueprint] {
	return func(yield func(*Blueprint) bool) {
		for _, build := range catalog {
			if !yield(build()) {
				return
			}
		}
	}
}

// FuncSource adapts a build function to a Source. The function is invoked
// once per iteration and must return fresh ASTs each call.
func FuncSource(name string, build func() []*Blueprint) Source {
	return funcSource{name: name, build: build}
}

type funcSource struct {
	name  string
	build func() []*Blueprint
}

func (s funcSource) Name() string { return s.name }

func (s funcSource) Blueprints() iter.Seq[*Blueprint] {
	return func(yield func(*Blueprint) bool) {
		for _, b := range s.build() {
			if !yield(b) {
				return
			}
		}
	}
}

// Multi concatenates sources into one, preserving order.
func Multi(srcs ...Source) Source { return multiSource(srcs) }

type multiSource []Source

func (m multiSource) Name() string {
	names := make([]string, len(m))
	for i, s := range m {
		names[i] = s.Name()
	}
	return strings.Join(names, "+")
}

func (m multiSource) Blueprints() iter.Seq[*Blueprint] {
	return func(yield func(*Blueprint) bool) {
		for _, s := range m {
			for b := range s.Blueprints() {
				if !yield(b) {
					return
				}
			}
		}
	}
}
