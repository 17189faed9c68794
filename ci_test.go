package incod

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// TestCIPatternsMatchTests reads every `go test` command in the CI
// workflow and fails when a -run or -fuzz pattern selects nothing in a
// package the command lists, or when one alternative of the pattern
// (each branch of an A|B, expanded through groups) selects nothing in
// any of them, under the build tags the command sets (a -race leg does
// not build the !race files). go test passes such a leg with "no tests
// to run", so a renamed test would otherwise drop out of its race or
// fuzz leg without a sound. -run '^$', which runs no test on purpose, is
// skipped.
func TestCIPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(raw), "\n") {
		cmd := goTestCommand(line)
		if cmd == nil {
			continue
		}
		where := "ci.yml:" + strconv.Itoa(i+1)
		for _, sel := range []struct {
			flag  string
			kinds []string // the functions the flag selects among
		}{
			{"-run", []string{"Test", "Fuzz", "Example"}},
			{"-fuzz", []string{"Fuzz"}},
		} {
			pattern, ok := cmd.flags[sel.flag]
			if !ok || pattern == "^$" {
				continue
			}
			// go test matches the first element of a slash-separated
			// pattern against top-level names.
			top := strings.SplitN(pattern, "/", 2)[0]
			parsed, err := syntax.Parse(top, syntax.Perl)
			if err != nil {
				t.Errorf("%s: %s %q does not parse: %v", where, sel.flag, pattern, err)
				continue
			}
			if len(cmd.pkgs) == 0 {
				t.Errorf("%s: %s %q names no package", where, sel.flag, pattern)
			}
			var names []string
			for _, pkg := range cmd.pkgs {
				got, err := testFuncs(pkg, cmd.tags, sel.kinds)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !slices.ContainsFunc(got, regexp.MustCompile(top).MatchString) {
					t.Errorf("%s: %s %q matches no test in %s (tags %v); the leg would pass with no tests to run",
						where, sel.flag, pattern, pkg, cmd.tags)
				}
				names = append(names, got...)
			}
			// Each alternative must still select a test: a leg whose
			// A|B lost B runs A and says nothing.
			for _, alt := range alternatives(parsed) {
				checked++
				if !slices.ContainsFunc(names, regexp.MustCompile(alt.String()).MatchString) {
					t.Errorf("%s: %s %q: its alternative %s matches no test in %v (tags %v)",
						where, sel.flag, pattern, alt, cmd.pkgs, cmd.tags)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz pattern in ci.yml; the parse is broken")
	}
	t.Logf("%d alternatives of -run and -fuzz patterns checked", checked)
}

// alternatives expands re into the patterns its alternations choose
// between: A|B gives A and B, x(A|B)y gives xAy and xBy.
func alternatives(re *syntax.Regexp) []*syntax.Regexp {
	switch re.Op {
	case syntax.OpAlternate:
		var out []*syntax.Regexp
		for _, sub := range re.Sub {
			out = append(out, alternatives(sub)...)
		}
		return out
	case syntax.OpCapture:
		return alternatives(re.Sub[0])
	case syntax.OpConcat:
		out := []*syntax.Regexp{{Op: syntax.OpConcat, Flags: re.Flags}}
		for _, sub := range re.Sub {
			var next []*syntax.Regexp
			for _, prefix := range out {
				for _, alt := range alternatives(sub) {
					c := *prefix
					c.Sub = append(slices.Clip(prefix.Sub), alt)
					next = append(next, &c)
				}
			}
			out = next
		}
		return out
	}
	return []*syntax.Regexp{re}
}

// ciTest is one `go test` command line of the workflow.
type ciTest struct {
	flags map[string]string // -run and -fuzz patterns
	tags  []string          // build tags: -tags, and race for -race
	pkgs  []string          // package directories, relative to the root
}

// goTestCommand parses a workflow line that runs `go test` in the root
// module, or returns nil.
func goTestCommand(line string) *ciTest {
	line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "run:"))
	words := shellWords(line)
	for len(words) > 0 && strings.Contains(words[0], "=") { // VAR=value prefixes
		words = words[1:]
	}
	if len(words) < 2 || words[0] != "go" || words[1] != "test" {
		return nil
	}
	cmd := &ciTest{flags: map[string]string{}}
	for i := 2; i < len(words); i++ {
		w := words[i]
		switch {
		case w == "-race":
			cmd.tags = append(cmd.tags, "race")
		case (w == "-run" || w == "-fuzz" || w == "-tags") && i+1 < len(words):
			i++
			if w == "-tags" {
				cmd.tags = append(cmd.tags, strings.Split(words[i], ",")...)
			} else {
				cmd.flags[w] = words[i]
			}
		case strings.HasPrefix(w, "./"):
			cmd.pkgs = append(cmd.pkgs, filepath.Clean(w))
		}
	}
	return cmd
}

// shellWords splits a command line on blanks, keeping single- and
// double-quoted words whole and dropping the quotes.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	var quote rune
	inWord := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// testFuncs lists the top-level functions of dir's test files, built
// with tags, whose names are a test name of one of kinds.
func testFuncs(dir string, tags []string, kinds []string) ([]string, error) {
	ctx := build.Default
	ctx.BuildTags = tags
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var names []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		ok, err := ctx.MatchFile(dir, e.Name())
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && isTestName(fn.Name.Name, kinds) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names, nil
}

// isTestName reports whether name is kind, or kind followed by a
// non-lowercase rune, for one of kinds: the names go test runs.
func isTestName(name string, kinds []string) bool {
	for _, k := range kinds {
		if rest, ok := strings.CutPrefix(name, k); ok {
			r, _ := utf8.DecodeRuneInString(rest)
			if rest == "" || !unicode.IsLower(r) {
				return true
			}
		}
	}
	return false
}
