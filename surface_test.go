package repro_test

// Checks over the module's own source, parsed once: only package kpi writes
// a snapshot's leaves, and every exported function and method of internal/
// and rap/ has a caller outside tests.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sourceFile is one parsed .go file of the module or of bench/.
type sourceFile struct {
	// path is slash-separated and relative to the module root.
	path string
	file *ast.File
	test bool
}

// bench reports whether the file belongs to the benchmark's own module.
func (f sourceFile) bench() bool { return strings.HasPrefix(f.path, "bench/") }

var (
	sourceOnce  sync.Once
	sourceFset  = token.NewFileSet()
	sourceFiles []sourceFile
	sourceErr   error
)

// parseSource parses every .go file under the module root once; hidden
// directories and testdata are skipped.
func parseSource(t *testing.T) []sourceFile {
	t.Helper()
	sourceOnce.Do(func() {
		sourceErr = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			f, err := parser.ParseFile(sourceFset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			sourceFiles = append(sourceFiles, sourceFile{
				path: filepath.ToSlash(p),
				file: f,
				test: strings.HasSuffix(p, "_test.go"),
			})
			return nil
		})
	})
	if sourceErr != nil {
		t.Fatal(sourceErr)
	}
	return sourceFiles
}

// TestOnlyKPIWritesLeaves fails on a write to a snapshot's leaves in
// non-test code of module repro outside internal/kpi: an assignment or
// increment whose target is X.Leaves or part of it (X.Leaves[i],
// X.Leaves[i].F), taking &X.Leaves[i], or copy or clear into X.Leaves.
// Every cache of a Snapshot derives from its leaves, so the writers in
// package kpi (Relabel, RelabelTouched, Rewrite, ApplyDelta) are the only
// code that knows what a write must drop or patch. The check is syntactic:
// a field named Leaves on any type counts. bench/ is its own module and
// writes fresh clones in place.
func TestOnlyKPIWritesLeaves(t *testing.T) {
	for _, sf := range parseSource(t) {
		if sf.test || sf.bench() || strings.HasPrefix(sf.path, "internal/kpi/") {
			continue
		}
		report := func(n ast.Node, what string) {
			t.Errorf("%s: %s; write leaves through package kpi's writers", sourceFset.Position(n.Pos()), what)
		}
		ast.Inspect(sf.file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if leavesExpr(lhs) {
						report(x, "assignment to a snapshot's leaves")
					}
				}
			case *ast.IncDecStmt:
				if leavesExpr(x.X) {
					report(x, "increment of a snapshot's leaf")
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND && leavesExpr(x.X) {
					report(x, "address of a snapshot's leaf")
				}
			case *ast.CallExpr:
				if fn, ok := x.Fun.(*ast.Ident); ok && (fn.Name == "copy" || fn.Name == "clear") &&
					len(x.Args) > 0 && leavesExpr(x.Args[0]) {
					report(x, fn.Name+" into a snapshot's leaves")
				}
			}
			return true
		})
	}
}

// leavesExpr reports whether e denotes X.Leaves or a part of it.
func leavesExpr(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == "Leaves" {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// uncalledExports lists the exported functions and methods of internal/
// and rap/ whose name no non-test file of the module or of bench/ uses,
// other than where it is declared. Names are matched as words, as a reader
// searching the tree would; an entry may only leave this list (the test
// fails until a name that gains a caller or is deleted is struck off). Each
// carries the reason it stays.
var uncalledExports = map[string]string{
	"internal/rapminer.MustNew": "the tests of seven packages build their default miner with it",
	"rap.Baselines":             "the rap facade is the module's one importable package; its API serves importers outside the module",
	"rap.NewEnsemble":           "the rap facade is the module's one importable package; its API serves importers outside the module",
}

// TestExportedFuncsHaveCallers fails on an exported function or method of
// internal/ or rap/ that nothing outside tests calls: delete it, or move
// it into the _test.go files that use it.
func TestExportedFuncsHaveCallers(t *testing.T) {
	files := parseSource(t)
	uses := map[string]int{}
	for _, sf := range files {
		if sf.test {
			continue
		}
		ast.Inspect(sf.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
	}
	decls := map[string]int{}
	type export struct{ key, name string }
	var exports []export
	for _, sf := range files {
		if sf.test {
			continue
		}
		for _, d := range sf.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fd.Name.Name]++
			if !fd.Name.IsExported() || sf.bench() ||
				!strings.HasPrefix(sf.path, "internal/") && !strings.HasPrefix(sf.path, "rap/") {
				continue
			}
			key := path.Dir(sf.path) + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key = path.Dir(sf.path) + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			exports = append(exports, export{key, fd.Name.Name})
		}
	}
	var uncalled []string
	for _, e := range exports {
		if uses[e.name] == decls[e.name] {
			uncalled = append(uncalled, e.key)
		}
	}
	sort.Strings(uncalled)
	listed := map[string]bool{}
	for _, key := range uncalled {
		listed[key] = true
		if _, ok := uncalledExports[key]; !ok {
			t.Errorf("%s has no caller outside tests: delete it or move it into the tests that use it", key)
		}
	}
	for key := range uncalledExports {
		if !listed[key] {
			t.Errorf("%s is in uncalledExports but has a caller or is gone: strike it off", key)
		}
	}
	if t.Failed() {
		t.Logf("uncalled exports: %q", uncalled)
	}
}

// recvName returns the type name of a method receiver.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
