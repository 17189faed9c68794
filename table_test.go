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

	"incod/internal/protocol"
)

// protocolNameBudget is how many places outside internal/protocol may
// tell one protocol from another by spelling its name: trafficgen.Open's
// three apps (trafficgen sits below the table, and its proposer is a
// client with no serving row) and experiments.DemandCurves' three paper
// traces. A new site is a row field that is missing, or raises this
// number in a reviewed diff.
const protocolNameBudget = 6

// TestProtocolNameBudget counts, in the root module's non-test Go
// outside internal/protocol, every case clause, ==/!= comparison and
// map-literal key that spells a row's name as a string literal.
func TestProtocolNameBudget(t *testing.T) {
	names := map[string]bool{protocol.KVS.Name: true, protocol.DNS.Name: true, protocol.Paxos.Name: true}
	isName := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return false
		}
		s, _ := strconv.Unquote(lit.Value)
		return names[s]
	}
	fset := token.NewFileSet()
	var sites []string
	site := func(n ast.Node, what string) {
		sites = append(sites, fset.Position(n.Pos()).String()+": "+what)
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || path == filepath.Join("internal", "protocol") || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				for _, e := range n.List {
					if isName(e) {
						site(n, "case")
						break
					}
				}
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (isName(n.X) || isName(n.Y)) {
					site(n, n.Op.String())
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok && isName(kv.Key) {
						site(kv, "map key")
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) > protocolNameBudget {
		t.Errorf("%d sites tell a protocol by its name, over the budget of %d: read the row from internal/protocol instead:\n\t%s",
			len(sites), protocolNameBudget, strings.Join(sites, "\n\t"))
	}
	t.Logf("%d protocol-name sites, budget %d", len(sites), protocolNameBudget)
}
