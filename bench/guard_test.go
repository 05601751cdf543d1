package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The benchmark must keep compiling while the simulator collapses to one
// engine: that change deletes the reference loop, the tracker split, the
// engine selector and the deprecated entry points. These checks keep the
// harness off every one of them, so the change never has to edit the
// benchmark that measures it.

// forbiddenImports are packages the one-engine change removes or makes
// internal to the simulator.
var forbiddenImports = []string{
	"timekeeping/internal/engine",
	"timekeeping/internal/cpu",
}

// forbiddenSelectors lists, per imported package, the names the harness
// may not use. A trailing "*" matches any name with that prefix.
var forbiddenSelectors = map[string][]string{
	"timekeeping/internal/sim":         {"Engine*", "RunContext", "RunStream", "RunStreamContext"},
	"timekeeping/internal/core":        {"Tracker", "FastTracker", "NewTracker", "NewFastTracker"},
	"timekeeping/internal/golden":      {"ComputeEngine"},
	"timekeeping/internal/experiments": {"Runner", "NewRunner"},
	"timekeeping/internal/hier":        {"Hierarchy", "New"},
}

// forbiddenFields are field and method names the harness may not select
// or set on anything: Spec.Engine and Result.Engine, and
// (*hier.Hierarchy).Access. The check is syntactic, so it also keeps the
// names off every other type.
var forbiddenFields = []string{"Engine", "Access"}

// violations returns every forbidden use in one parsed file.
func violations(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(n ast.Node, what string) {
		out = append(out, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), what))
	}
	local := map[string]string{} // import name -> path
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		for _, bad := range forbiddenImports {
			if path == bad {
				report(imp, "imports "+path)
			}
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = path
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				if path, ok := local[id.Name]; ok {
					for _, bad := range forbiddenSelectors[path] {
						if bad == n.Sel.Name || strings.HasSuffix(bad, "*") && strings.HasPrefix(n.Sel.Name, strings.TrimSuffix(bad, "*")) {
							report(n, "uses "+id.Name+"."+n.Sel.Name)
						}
					}
					return true
				}
			}
			for _, bad := range forbiddenFields {
				if n.Sel.Name == bad {
					report(n, "selects ."+bad)
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				for _, bad := range forbiddenFields {
					if id.Name == bad {
						report(n, "sets field "+bad)
					}
				}
			}
		}
		return true
	})
	return out
}

func TestHarnessAvoidsAPIsTheOneEngineChangeDeletes(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files found: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range violations(fset, f) {
			t.Error(v)
		}
	}
}

// TestGuardCatchesEachUse feeds the guard one use of every forbidden API.
func TestGuardCatchesEachUse(t *testing.T) {
	uses := []string{
		`import "timekeeping/internal/engine"`,
		`import "timekeeping/internal/cpu"`,
		`import "timekeeping/internal/sim"; var _ = sim.EngineFast`,
		`import "timekeeping/internal/sim"; var _ = sim.Engines`,
		`import "timekeeping/internal/sim"; var _ = sim.RunContext`,
		`import "timekeeping/internal/sim"; var _ = sim.RunStream`,
		`import "timekeeping/internal/sim"; var _ = sim.RunStreamContext`,
		`import "timekeeping/internal/sim"; var _ = sim.Spec{Engine: ""}`,
		`func f(r result) { _ = r.Engine }`,
		`import "timekeeping/internal/core"; var _ *core.Tracker`,
		`import "timekeeping/internal/core"; var _ *core.FastTracker`,
		`import "timekeeping/internal/golden"; var _ = golden.ComputeEngine`,
		`import "timekeeping/internal/experiments"; var _ experiments.Runner`,
		`import h "timekeeping/internal/hier"; var _ *h.Hierarchy`,
		`func f(x y) { x.Access(z, 0) }`,
	}
	for _, src := range uses {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "use.go", "package p; "+src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(violations(fset, f)) == 0 {
			t.Errorf("guard missed: %s", src)
		}
	}
}
