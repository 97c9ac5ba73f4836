package tmtest

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// determinismKeyword matches doc comments that state the serial
// determinism contract: either how the symbol participates in the
// deterministic schedule (runs while holding the execution token,
// (cycle, id) serialization, seeded randomness, replay, bit-identical
// results) or why it does not need to (proc-local state, no shared
// state). The vocabulary is deliberately the one DESIGN.md §12 uses, so
// godoc and the design document stay in the same language.
var determinismKeyword = regexp.MustCompile(
	`(?i)determinis|bit-identical|ordered|ordering|serializ|schedul|reproduc|replay|` +
		`same seed|seeded|program order|\(cycle|-local\b|local to |no shared`)

// contractTypes lists, per package directory, the receiver types whose
// exported methods (plus the types themselves and their constructors)
// must state their determinism contract: the API through which workloads
// and TM systems interact with the scheduler. Everything else in these
// packages still needs a doc comment, just not the contract keyword.
var contractTypes = map[string]map[string]bool{
	filepath.Join("..", "sim"):     {"Engine": true, "Proc": true, "Rand": true, "Config": true},
	filepath.Join("..", "machine"): {"Machine": true, "Proc": true, "Params": true},
}

// TestSchedulerAPIDocumentsDeterminismContract is the godoc audit gate
// for internal/sim and internal/machine: every exported symbol carries a
// doc comment, and the scheduler-facing surface (contractTypes, plus all
// top-level functions in internal/sim) states its determinism contract —
// is proc-local, runs while holding the execution token, is seeded, and
// so on. A new exported method with an undocumented contract fails CI
// here.
func TestSchedulerAPIDocumentsDeterminismContract(t *testing.T) {
	for dir, contract := range contractTypes {
		pkg := parsePackage(t, dir)
		short := filepath.Base(dir)

		check := func(kind, name, docText string, needContract bool) {
			docText = strings.TrimSpace(docText)
			switch {
			case docText == "":
				t.Errorf("internal/%s: exported %s %s has no doc comment", short, kind, name)
			case needContract && !determinismKeyword.MatchString(docText):
				t.Errorf("internal/%s: %s %s does not state its determinism contract "+
					"(say whether it is proc-local, runs while holding the execution token, is seeded, ...)", short, kind, name)
			}
		}

		for _, v := range append(append([]*doc.Value{}, pkg.Consts...), pkg.Vars...) {
			check("const/var", strings.Join(v.Names, ","), valueDoc(v), short == "sim")
		}
		for _, f := range pkg.Funcs {
			check("func", f.Name, f.Doc, short == "sim")
		}
		for _, typ := range pkg.Types {
			needs := contract[typ.Name]
			check("type", typ.Name, typ.Doc, needs)
			for _, v := range append(append([]*doc.Value{}, typ.Consts...), typ.Vars...) {
				check("const/var", strings.Join(v.Names, ","), valueDoc(v), false)
			}
			for _, f := range typ.Funcs { // constructors
				check("func", f.Name, f.Doc, needs)
			}
			for _, m := range typ.Methods {
				// Stringers are pure formatting; no contract to state.
				check("method", typ.Name+"."+m.Name, m.Doc, needs && m.Name != "String")
			}
		}
	}
}

// valueDoc collects a const/var group's documentation: the group comment
// plus each member's own comment, so a group documented per-constant
// (idiomatic for enums) passes without a redundant group comment.
func valueDoc(v *doc.Value) string {
	parts := []string{v.Doc}
	for _, spec := range v.Decl.Specs {
		if vs, ok := spec.(*ast.ValueSpec); ok && vs.Doc != nil {
			parts = append(parts, vs.Doc.Text())
		}
	}
	return strings.TrimSpace(strings.Join(parts, " "))
}

// parsePackage loads the non-test files of one package with docs.
func parsePackage(t *testing.T, dir string) *doc.Package {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		var files []*ast.File
		for _, f := range p.Files {
			files = append(files, f)
		}
		d, err := doc.NewFromFiles(fset, files, "repro/internal/"+filepath.Base(dir))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	t.Fatalf("no package found in %s", dir)
	return nil
}
