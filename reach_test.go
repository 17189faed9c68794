package incod

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowed names the exported identifiers that no non-test code
// uses, the exported fields that no non-test code reads, and the fields
// it reads but gives only one value, that stay anyway. Each key is an
// identifier or a field as TestEveryExportHasAProgramCaller,
// TestEveryFieldHasAProgramRead or TestEveryKnobIsTurned prints it; each
// value starts with one of safetyReasons, the kinds of code a
// simplification never removes, and goes on to say which.
var reachAllowed = map[string]string{
	"memcache.EncodeResponse":      "a reference implementation that tests compare against: TestAppendResponseMatchesEncodeResponse holds the serving path's AppendResponse to it",
	"core.FuncService.OnShift":     "a test seam: core's TestFuncServiceShiftNoop and TestControllerRetriesFailedShift and daemon's shift-failure, retry and pin-race tests (TestOrchestratorShiftFailureRetries, TestPinRacesInFlightShift and three more) make a shift fail or block through it",
	"fleet.Config.Logf":            "a test seam: TestControllerEnforcesBudgetOverLiveAPI, TestControllerSurvivesDeadMember and TestControllerEnergyIsTrapezoidOfCurve send the controller's progress lines to t.Logf",
	"simnet.FaultPlan.Links":       "a test seam: paxos's TestRecoveryResolvesDivergentInstance and TestDetachedAcceptorStopsVoting cut single links with it, and simnet's TestPartitionHeal partitions two nodes",
	"dataplane.Config.QueueDepth":  "a test seam: TestQueueOverrunDropsAreCounted, TestQueueOverrunAccountingUnderSustainedPressure and TestCloseDrainsQueuedDatagrams shrink the single reader's queues to overrun them; ROADMAP item N deletes the queues with the single reader",
	"trafficgen.Client.MaxRetries": "a test seam: paxos's TestInactiveLeaderIgnoresRequests sets it to 1 so that a request to a paused leader is given up on within the run",
}

// safetyReasons are the kinds of code that stay although only tests call
// them.
var safetyReasons = []string{
	"a check on input from outside the program",
	"handling of an error a call can return",
	"synchronisation",
	"a flush that makes data durable",
	"a value stored to detect or recover from a fault",
	"a reference implementation that tests compare against",
	"a test seam",
}

// reachHarness names the exported fields that nothing reads and that
// the benchmark module still sets, so deleting one breaks its build.
// They go together with the lines of benchmark/ that set them. Each
// value says where the harness sets the field.
var reachHarness = map[string]string{
	"dataplane.Config.GSOTx":   "benchmark/twin.go sets it from the traced twin's -gsotx flag",
	"dataplane.Config.ShardBy": "benchmark/twin.go sets it to kvs.ShardByKey for the KVS twin",
}

// loadedProgram type-checks the root module and the benchmark module
// once per test binary, for every check that reads the program.
var loadedProgram = sync.OnceValues(func() (*program, error) {
	root, err := filepath.Abs(".")
	if err != nil {
		return nil, err
	}
	return loadProgram(root, filepath.Join(root, "benchmark"))
})

// TestEveryExportHasAProgramCaller type-checks the non-test Go files of
// this module and of the benchmark module and fails on any exported
// package-level identifier, or exported method of a package-level type,
// declared in this module that no non-test code uses. A method is used
// also when types.Implements shows that its type satisfies, through it,
// an interface the program knows: one that the program or a package it
// imports declares, or one written out in a type assertion or type
// switch, which counts only for types that also implement the asserted
// operand's interface (interface{ Backend() string } on a
// netio.BatchConn reaches the rungs, not every type with such a method).
// An identifier that only tests call is therefore either deleted, or
// reached through the program's own entry points, or listed in
// reachAllowed with its reason.
//
// The files checked are the ones this platform builds; an identifier used
// only by another platform's files reads as unused here and is listed.
func TestEveryExportHasAProgramCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	prog, err := loadedProgram()
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	seen := map[string]bool{}
	for _, d := range prog.exports() {
		seen[d.name] = true
		if prog.uses[d.obj] || prog.satisfiesUsedInterface(d) {
			if _, ok := reachAllowed[d.name]; ok {
				t.Errorf("%s is listed in reachAllowed but the program uses it; drop the entry", d.name)
			}
			continue
		}
		if _, ok := reachAllowed[d.name]; !ok {
			unused = append(unused, prog.fset.Position(d.obj.Pos()).String()+": "+d.name)
		}
	}
	for _, f := range prog.fields() {
		seen[f.name] = true
	}
	for name, why := range reachAllowed {
		if !seen[name] {
			t.Errorf("reachAllowed names %s, which no longer exists; drop the entry", name)
		}
		if !slices.ContainsFunc(safetyReasons, func(r string) bool { return strings.HasPrefix(why, r+": ") }) {
			t.Errorf("reachAllowed gives %s the reason %q; it must start with one of safetyReasons and a colon", name, why)
		}
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		t.Errorf("%d exported identifiers have no caller outside tests (delete them, call them from the program, or list them in reachAllowed with the reason they stay):\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// TestEveryFieldHasAProgramRead fails on any exported field of a
// package-level struct type of the root module that no non-test code of
// either module reads, has no json tag and is listed neither in
// reachAllowed nor in reachHarness. A read is a selector of the field
// that is not the target of an assignment: =, an op= such as += and
// ++/-- all write a field, as a composite-literal key does, and the x.F
// that x.F = append(x.F, ...) appends to is part of that write. A value
// passed whole to a function of fmt or encoding/json reads every field
// it holds, as the verbs and the encoder walk them. A field the program
// only writes is state nothing looks at: it is deleted, read, or
// serialised under a json tag.
func TestEveryFieldHasAProgramRead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	prog, err := loadedProgram()
	if err != nil {
		t.Fatal(err)
	}
	var unread []string
	seen := map[string]bool{}
	for _, f := range prog.fields() {
		seen[f.name] = true
		_, allowed := reachAllowed[f.name]
		_, harness := reachHarness[f.name]
		if prog.reads[f.obj] || f.tagged || f.promotes {
			// TestEveryKnobIsTurned judges an entry for a field it checks.
			if harness || allowed && !prog.isKnob(f) {
				t.Errorf("%s is listed but the program reads it or serialises it under a json tag; drop the entry", f.name)
			}
			continue
		}
		if !allowed && !harness {
			unread = append(unread, prog.fset.Position(f.obj.Pos()).String()+": "+f.name)
		}
	}
	for name, where := range reachHarness {
		if !seen[name] {
			t.Errorf("reachHarness names %s, which is no longer an exported field; drop the entry", name)
		}
		if !strings.HasPrefix(where, "benchmark/") {
			t.Errorf("reachHarness gives %s the note %q; it must name the benchmark/ file that sets it", name, where)
		}
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		t.Errorf("%d exported fields are written but never read outside tests (delete them, read them from the program, or list them in reachAllowed with the reason they stay):\n\t%s",
			len(unread), strings.Join(unread, "\n\t"))
	}
}

// TestEveryKnobIsTurned fails on any exported field of a package-level
// struct type of the root module that non-test code of either module
// reads, that has no json tag and is not embedded, and that the same
// code gives one value or none (see addWrites for what gives a value),
// unless reachAllowed lists it. A setting the program never turns is a
// constant, or it selects code only tests run: it is made a constant,
// deleted with that code, or listed as a test seam. An entry for a field
// the program turns fails too.
func TestEveryKnobIsTurned(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	prog, err := loadedProgram()
	if err != nil {
		t.Fatal(err)
	}
	var fixed []string
	for _, f := range prog.fields() {
		if !prog.isKnob(f) {
			continue
		}
		_, allowed := reachAllowed[f.name]
		k := prog.knobs[f.obj]
		switch {
		case k != nil && (k.turned || len(k.values) > 1):
			if allowed {
				t.Errorf("%s is listed in reachAllowed but the program gives it more than one value; drop the entry", f.name)
			}
		case !allowed:
			what := "is never given a value"
			if k != nil {
				what = "is only ever " + slices.Collect(maps.Keys(k.values))[0]
			}
			fixed = append(fixed, prog.fset.Position(f.obj.Pos()).String()+": "+f.name+" "+what)
		}
	}
	if len(fixed) > 0 {
		sort.Strings(fixed)
		t.Errorf("%d exported fields that the program reads have one value outside tests (make them constants, delete them with the code they select, or list them in reachAllowed with the reason they stay):\n\t%s",
			len(fixed), strings.Join(fixed, "\n\t"))
	}
}

// isKnob reports whether TestEveryKnobIsTurned checks f.
func (p *program) isKnob(f field) bool {
	return p.reads[f.obj] && !f.tagged && !f.obj.Embedded()
}

// listedPackage is the part of `go list -json` this check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
}

// program is the type-checked non-test code of the root module and the
// packages of its consumers.
type program struct {
	fset       *token.FileSet
	own        []*types.Package // the root module's packages
	uses       map[types.Object]bool
	reads      map[*types.Var]bool  // struct fields the code reads
	knobs      map[*types.Var]*knob // what the code gives each struct field
	interfaces []knownInterface
}

// knob is what the non-test code gives one struct field.
type knob struct {
	values map[string]bool // each constant it is given, "zero value" for its zero value
	turned bool            // given a value that is not a constant, changed in place or addressed
}

// knownInterface is an interface type the program knows. A guarded one
// was written out in a type assertion on an operand of the guard's type,
// so only the guard's implementations reach it.
type knownInterface struct {
	it, guard *types.Interface
}

// field is one exported field of a package-level struct type of the
// root module.
type field struct {
	name     string
	obj      *types.Var
	tagged   bool // has a json tag
	promotes bool // embedded, and its type's method set holds a method promoted through it
}

// export is one identifier the root module exports.
type export struct {
	name string
	obj  types.Object
	recv *types.Named // the method's type, nil for a package-level name
}

// loadProgram lists the dependencies of every package under each module
// directory, type-checks the module packages from source (standard
// packages come from their export data), and records every object the
// non-test code uses and every interface type it can reach.
func loadProgram(moduleDirs ...string) (*program, error) {
	p := &program{fset: token.NewFileSet(), uses: map[types.Object]bool{}, reads: map[*types.Var]bool{}, knobs: map[*types.Var]*knob{}}
	exportFile := map[string]string{}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exportFile[path]
		if !ok {
			return nil, errors.New("no export data listed for " + path)
		}
		return os.Open(f)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})
	for i, dir := range moduleDirs {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, lp := range pkgs {
			if lp.Standard {
				exportFile[lp.ImportPath] = lp.Export
			}
		}
		for _, lp := range pkgs {
			if lp.Standard || checked[lp.ImportPath] != nil {
				continue
			}
			if len(lp.CgoFiles) > 0 {
				return nil, errors.New(lp.ImportPath + " has cgo files, which this check does not type-check")
			}
			pkg, err := p.check(lp, imp)
			if err != nil {
				return nil, err
			}
			checked[lp.ImportPath] = pkg
			if i == 0 {
				p.own = append(p.own, pkg)
			}
		}
	}
	for path := range exportFile {
		pkg, err := imp.Import(path)
		if err != nil {
			return nil, err
		}
		p.addInterfaces(pkg.Scope())
	}
	p.addInterfaces(types.Universe)
	return p, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goList runs `go list -deps -export -json` over every package in dir's
// module, in dependency order.
func goList(dir string) ([]listedPackage, error) {
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goCmd); err != nil {
		goCmd = "go"
	}
	cmd := exec.Command(goCmd, "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,CgoFiles,Export,Standard", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, errors.New("go list in " + dir + ": " + err.Error() + ": " + stderr.String())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, lp)
	}
}

// check parses and type-checks one listed package's non-test files and
// records what they use.
func (p *program) check(lp listedPackage, imp types.Importer) (*types.Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, p.fset, files, info)
	if err != nil {
		return nil, err
	}
	// A method's receiver names its own type; that is no use of it.
	receivers := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv.List[0].Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range info.Uses {
		if !receivers[id] {
			p.uses[origin(obj)] = true
		}
	}
	// An interface written out in a type assertion or a type switch
	// reaches only the dynamic types the asserted operand can hold.
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			var x ast.Expr
			var cases []ast.Expr
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				x, cases = n.X, []ast.Expr{n.Type}
			case *ast.TypeSwitchStmt:
				switch a := n.Assign.(type) {
				case *ast.AssignStmt:
					x = a.Rhs[0].(*ast.TypeAssertExpr).X
				case *ast.ExprStmt:
					x = a.X.(*ast.TypeAssertExpr).X
				}
				for _, c := range n.Body.List {
					cases = append(cases, c.(*ast.CaseClause).List...)
				}
			default:
				return true
			}
			operand, ok := info.TypeOf(x).Underlying().(*types.Interface)
			if !ok {
				return true
			}
			for _, c := range cases {
				if c == nil { // the x.(type) of a type switch
					continue
				}
				if it, ok := info.TypeOf(c).Underlying().(*types.Interface); ok {
					p.interfaces = append(p.interfaces, knownInterface{it, operand})
				}
			}
			return true
		})
	}
	for _, f := range files {
		p.addReads(f, info)
		p.addWrites(f, info)
	}
	p.addInterfaces(pkg.Scope())
	return pkg, nil
}

// addReads records the struct fields a file reads: every field selector
// that is not the target of an assignment (=, op= or ++/--) or the first
// argument of an append assigned back to it, the
// embedded fields a promoted selector passes through, and every field of
// a value passed to a function of fmt or encoding/json.
func (p *program) addReads(f *ast.File, info *types.Info) {
	assigned := map[*ast.SelectorExpr]bool{}
	assign := func(x ast.Expr) {
		if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
			assigned[sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				assign(lhs)
				// x.F = append(x.F, ...) writes x.F on both sides.
				if len(n.Lhs) == len(n.Rhs) && appendsTo(n.Rhs[i], lhs, info) {
					assign(n.Rhs[i].(*ast.CallExpr).Args[0])
				}
			}
		case *ast.IncDecStmt:
			assign(n.X)
		case *ast.SelectorExpr:
			sel, ok := info.Selections[n]
			if !ok {
				return true
			}
			// The path leads through embedded fields to the field or the
			// promoted method selected.
			path, t := sel.Index(), sel.Recv()
			for i, idx := range path {
				if i == len(path)-1 && (sel.Kind() != types.FieldVal || assigned[n]) {
					break
				}
				v := structOf(t).Field(idx)
				p.reads[v.Origin()] = true
				t = v.Type()
			}
		case *ast.CallExpr:
			var id *ast.Ident
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || (fn.Pkg().Path() != "fmt" && fn.Pkg().Path() != "encoding/json") {
				return true
			}
			for _, arg := range n.Args {
				p.readWhole(info.TypeOf(arg), map[types.Type]bool{})
			}
		}
		return true
	})
}

// appendsTo reports whether e is a call of the builtin append whose first
// argument is lhs itself.
func appendsTo(e, lhs ast.Expr, info *types.Info) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	return types.ExprString(ast.Unparen(call.Args[0])) == types.ExprString(ast.Unparen(lhs))
}

// readWhole records every field a value of type t holds as read, through
// pointers, slices, arrays, maps and nested structs.
func (p *program) readWhole(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		p.readWhole(u.Elem(), seen)
	case *types.Slice:
		p.readWhole(u.Elem(), seen)
	case *types.Array:
		p.readWhole(u.Elem(), seen)
	case *types.Map:
		p.readWhole(u.Key(), seen)
		p.readWhole(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			p.reads[u.Field(i).Origin()] = true
			p.readWhole(u.Field(i).Type(), seen)
		}
	}
}

// addWrites records the values a file gives struct fields. A keyed
// composite literal gives each field the value it writes, or the zero
// value for a key it omits; a positional one gives each field its
// element. x.F = e gives e's constant value, or the zero value inside an
// if whose condition holds x.F zero (a default filled in). An op=, ++/--,
// &x.F, a pointer method called on x.F or a non-constant value turns the
// field: the program sets it to more than one value.
func (p *program) addWrites(f *ast.File, info *types.Info) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(n) // *T for an element of a []*T literal
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			keyed := map[string]ast.Expr{}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					keyed[kv.Key.(*ast.Ident).Name] = kv.Value
				} else {
					p.give(st.Field(i), e, info)
				}
			}
			if len(keyed) > 0 || len(n.Elts) == 0 {
				for i := 0; i < st.NumFields(); i++ {
					p.give(st.Field(i), keyed[st.Field(i).Name()], info)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				v := fieldOf(lhs, info)
				switch {
				case v == nil:
				case n.Tok != token.ASSIGN || len(n.Lhs) != len(n.Rhs):
					p.turn(v)
				case defaulted(stack, lhs, info):
					p.give(v, nil, info)
				default:
					p.give(v, n.Rhs[i], info)
				}
			}
		case *ast.IncDecStmt:
			p.turn(fieldOf(n.X, info))
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				p.turn(fieldOf(n.X, info))
			}
		case *ast.SelectorExpr:
			// x.F.M() with a pointer receiver takes &x.F.
			sel, ok := info.Selections[n]
			if !ok || sel.Kind() != types.MethodVal {
				return true
			}
			_, ptrRecv := sel.Obj().(*types.Func).Type().(*types.Signature).Recv().Type().(*types.Pointer)
			if _, ptr := info.TypeOf(n.X).Underlying().(*types.Pointer); ptrRecv && !ptr {
				p.turn(fieldOf(n.X, info))
			}
		}
		return true
	})
}

// fieldOf returns the field x selects, or nil.
func fieldOf(x ast.Expr, info *types.Info) *types.Var {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		return s.Obj().(*types.Var).Origin()
	}
	return nil
}

// defaulted reports whether the assignment to lhs at the top of stack
// sits in the body of an if whose condition holds lhs zero: == 0,
// == nil, == "", == false or <= 0, alone or joined by && or ||.
func defaulted(stack []ast.Node, lhs ast.Expr, info *types.Info) bool {
	want := types.ExprString(lhs)
	var zero func(c ast.Expr) bool
	zero = func(c ast.Expr) bool {
		b, ok := ast.Unparen(c).(*ast.BinaryExpr)
		if !ok {
			return false
		}
		switch b.Op {
		case token.LAND, token.LOR:
			return zero(b.X) || zero(b.Y)
		case token.EQL, token.LEQ:
			tv := info.Types[b.Y]
			return types.ExprString(b.X) == want && (tv.IsNil() || tv.Value != nil && isZero(tv.Value))
		}
		return false
	}
	for i := len(stack) - 2; i >= 0; i-- {
		if ifs, ok := stack[i].(*ast.IfStmt); ok && stack[i+1] == ifs.Body && zero(ifs.Cond) {
			return true
		}
	}
	return false
}

// give records that v is given e, or its zero value when e is nil.
func (p *program) give(v *types.Var, e ast.Expr, info *types.Info) {
	k := p.knob(v)
	if e == nil {
		k.values["zero value"] = true
		return
	}
	switch tv := info.Types[e]; {
	case tv.IsNil() || tv.Value != nil && isZero(tv.Value):
		k.values["zero value"] = true
	case tv.Value != nil:
		k.values[tv.Value.ExactString()] = true
	default:
		k.turned = true
	}
}

// turn records that the program sets v to more than one value.
func (p *program) turn(v *types.Var) {
	if v != nil {
		p.knob(v).turned = true
	}
}

func (p *program) knob(v *types.Var) *knob {
	v = v.Origin()
	k := p.knobs[v]
	if k == nil {
		k = &knob{values: map[string]bool{}}
		p.knobs[v] = k
	}
	return k
}

func isZero(v constant.Value) bool {
	switch v.Kind() {
	case constant.Bool:
		return !constant.BoolVal(v)
	case constant.String:
		return constant.StringVal(v) == ""
	case constant.Int, constant.Float:
		return constant.Sign(v) == 0
	}
	return false
}

// structOf returns the struct type t or *t has.
func structOf(t types.Type) *types.Struct {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.Underlying().(*types.Struct)
}

// addInterfaces records the interface types a scope declares.
func (p *program) addInterfaces(scope *types.Scope) {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				p.interfaces = append(p.interfaces, knownInterface{it: it})
			}
		}
	}
}

// origin maps an instantiated generic function or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exports lists the root module's exported package-level identifiers and
// the exported methods of its package-level types, exported or not.
func (p *program) exports() []export {
	var out []export
	for _, pkg := range p.own {
		short := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), "incod/"), "internal/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out = append(out, export{name: short + "." + name, obj: obj})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					out = append(out, export{name: short + "." + name + "." + m.Name(), obj: m, recv: named})
				}
			}
		}
	}
	return out
}

// fields lists the exported fields of the root module's package-level
// struct types, exported or not.
func (p *program) fields() []field {
	var out []field
	for _, pkg := range p.own {
		short := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), "incod/"), "internal/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			promoted := map[int]bool{}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < mset.Len(); i++ {
				if path := mset.At(i).Index(); len(path) > 1 {
					promoted[path[0]] = true
				}
			}
			for i := 0; i < st.NumFields(); i++ {
				if v := st.Field(i); v.Exported() {
					_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
					out = append(out, field{name: short + "." + name + "." + v.Name(), obj: v, tagged: tagged, promotes: promoted[i]})
				}
			}
		}
	}
	return out
}

// satisfiesUsedInterface reports whether d is a method through which its
// type implements an interface the program knows.
func (p *program) satisfiesUsedInterface(d export) bool {
	if d.recv == nil || d.recv.TypeParams().Len() > 0 {
		return false
	}
	for _, k := range p.interfaces {
		if !hasMethod(k.it, d.obj.Name()) {
			continue
		}
		for _, t := range []types.Type{d.recv, types.NewPointer(d.recv)} {
			if types.Implements(t, k.it) && (k.guard == nil || types.Implements(t, k.guard)) {
				return true
			}
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
