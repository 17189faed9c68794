package incod

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// flagBudget is how many command-line flags the programs under cmd/ and
// internal/ may define. A new flag deletes an old one, or raises this
// number in a reviewed diff.
const flagBudget = 45

// flagDefiners maps each flag.FlagSet (and package flag) method that
// defines a flag to the index of its name argument.
var flagDefiners = map[string]int{
	"String": 0, "Int": 0, "Bool": 0, "Duration": 0, "Float64": 0,
	"Int64": 0, "Uint": 0, "Uint64": 0, "Func": 0, "BoolFunc": 0,
	"StringVar": 1, "IntVar": 1, "BoolVar": 1, "DurationVar": 1, "Float64Var": 1,
	"Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "TextVar": 1, "Var": 1,
}

// TestFlagBudget counts the flag definitions in the non-test Go files
// under cmd/ and internal/ that import "flag": every call of a
// flagDefiners method whose name argument is a string literal.
func TestFlagBudget(t *testing.T) {
	fset := token.NewFileSet()
	var defs []string
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if !importsFlag(f) {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				i, ok := flagDefiners[sel.Sel.Name]
				if !ok || len(call.Args) <= i {
					return true
				}
				if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					defs = append(defs, fset.Position(call.Pos()).String()+": -"+name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(defs) == 0 {
		t.Fatal("found no flag definitions; the walk is broken")
	}
	if len(defs) > flagBudget {
		t.Errorf("%d flag definitions, over the budget of %d: delete one, or raise flagBudget in a reviewed diff:\n\t%s",
			len(defs), flagBudget, strings.Join(defs, "\n\t"))
	}
	t.Logf("%d flag definitions, budget %d", len(defs), flagBudget)
}

func importsFlag(f *ast.File) bool {
	for _, imp := range f.Imports {
		if imp.Path.Value == `"flag"` {
			return true
		}
	}
	return false
}
