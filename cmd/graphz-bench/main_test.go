package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestEveryTableIsListed holds internal/bench to what this binary can
// reach: every exported Table*/Figure* function (and the page-cache
// extension) is wired into experiments(), which is what -list prints. A
// table added to the package without an experiment ID fails here instead
// of sitting unreachable behind its own test.
func TestEveryTableIsListed(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../../internal/bench", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	isTable := func(name string) bool {
		return strings.HasPrefix(name, "Table") || strings.HasPrefix(name, "Figure") || name == "PageCacheSensitivity"
	}
	var defined []string
	for _, f := range pkgs["bench"].Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && isTable(fn.Name.Name) {
				defined = append(defined, fn.Name.Name)
			}
		}
	}
	if len(defined) == 0 {
		t.Fatal("found no table functions in internal/bench: the path is stale")
	}

	main, err := parser.ParseFile(fset, "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	wired := map[string]bool{}
	for _, d := range main.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "experiments" {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "bench" {
					wired[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, name := range defined {
		if !wired[name] {
			t.Errorf("bench.%s is in no experiment of graphz-bench -list: wire it into experiments() or delete it", name)
		}
	}
}
