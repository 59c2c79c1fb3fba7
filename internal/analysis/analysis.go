// Package analysis is the repo's static-analysis framework: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// driver surface (Analyzer / Pass / Diagnostic) plus a package loader
// built on `go list -export` and the standard library's gc importer.
//
// The repo's correctness story — byte-identical scores across
// resharding, tiering, kernel switches, and publishing — rests on
// conventions that reviews used to enforce by hand: no map-order-
// dependent output in deterministic packages, no wall clock or global
// rand in scoring paths, nil-receiver-safe obs handles, no registry
// re-entry from snapshot probes, lock acquisition in canonical order,
// and every spawned goroutine owned by a Close. The analyzers in the
// subpackages (determinism, nilsafeobs, lockdiscipline,
// goroutinelifecycle) mechanize those rules; cmd/repolint is the
// multichecker that runs them over the tree in CI.
//
// Why not golang.org/x/tools itself: the module deliberately has zero
// external dependencies (a floating x/tools would add the single
// largest one), and everything the analyzers need — parsed syntax,
// full type information, and a deterministic driver — is available
// from the standard library. The API mirrors x/tools' shapes closely
// enough that an analyzer written here ports to a vet-style unitchecker
// mechanically.
//
// Deliberate deviations from a rule are annotated in source:
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line above. The driver rejects directives
// with an empty reason, an unknown analyzer name, or no diagnostic to
// suppress, so the allowlist cannot silently rot.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker. The zero value is not
// usable; Name, Doc, and Run are required.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. Lowercase, no spaces.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Run inspects one package and reports findings via pass.Report.
	// A non-nil error aborts the whole run (driver bugs, not findings).
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer's Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed non-test sources, in file-name
	// order (deterministic across runs).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Report records one finding at a source position.
	Report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic as the driver returns it: position
// translated through the file set and tagged with the analyzer name.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}
