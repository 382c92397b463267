package ycsbt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// The run properties are the benchmark's configuration surface, as in
// YCSB: every one the code reads must be documented in README.md's
// property tables, and every documented one must be read somewhere.

// propertyGetters are the properties.Properties accessors that read a
// property with a default.
var propertyGetters = map[string]bool{
	"GetString": true, "GetInt": true, "GetInt64": true, "GetBool": true, "GetFloat": true,
}

// readProperties returns every property name the non-test Go files of
// the module rooted at fsys read through a literal key, each with the
// first place that reads it. Nested modules (a directory with its own
// go.mod) are not this module's code and are skipped.
func readProperties(t *testing.T, fsys fs.FS) map[string]string {
	t.Helper()
	out := make(map[string]string)
	fset := token.NewFileSet()
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return fs.SkipDir
			}
			if _, err := fs.Stat(fsys, path.Join(p, "go.mod")); err == nil {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !propertyGetters[sel.Sel.Name] {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err == nil {
					if _, seen := out[name]; !seen {
						out[name] = fset.Position(lit.Pos()).String()
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
	return out
}

var backticked = regexp.MustCompile("`([^`]+)`")

// documentedProperties returns the names README.md documents: every
// backticked name in the column headed "Property" or "Properties" of
// any of its tables.
func documentedProperties(readme string) map[string]bool {
	out := make(map[string]bool)
	col := -1 // the property column of the table being read; -1: none
	for _, line := range strings.Split(readme, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			col = -1
			continue
		}
		cells := strings.Split(strings.ReplaceAll(strings.Trim(line, "|"), `\|`, "\x00"), "|")
		if col < 0 { // a table's header row
			col = len(cells) // a table with no property column
			for i, c := range cells {
				if h := strings.TrimSpace(c); h == "Property" || h == "Properties" {
					col = i
				}
			}
			continue
		}
		if col < len(cells) {
			for _, m := range backticked.FindAllStringSubmatch(cells[col], -1) {
				out[m[1]] = true
			}
		}
	}
	return out
}

// propertyDrift lists each property one side names and the other lacks.
func propertyDrift(documented map[string]bool, read map[string]string) []string {
	var out []string
	for name, where := range read {
		if !documented[name] {
			out = append(out, "property "+strconv.Quote(name)+" is read at "+where+" but no README.md property table documents it")
		}
	}
	for name := range documented {
		if _, ok := read[name]; !ok {
			out = append(out, "README.md documents property "+strconv.Quote(name)+" but no product code reads it")
		}
	}
	sort.Strings(out)
	return out
}

func TestREADMEDocumentsEveryProperty(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range propertyDrift(documentedProperties(string(readme)), readProperties(t, os.DirFS("."))) {
		t.Error(msg)
	}
}

// The check fails on a deleted table row and on an undocumented read.
func TestPropertyDriftIsCaught(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	read := readProperties(t, os.DirFS("."))

	row := "| `kvstore.sync` |"
	if !strings.Contains(readme, row) {
		t.Fatalf("README.md has no %s row to delete", row)
	}
	var kept []string
	for _, line := range strings.Split(readme, "\n") {
		if !strings.HasPrefix(line, row) {
			kept = append(kept, line)
		}
	}
	got := propertyDrift(documentedProperties(strings.Join(kept, "\n")), read)
	if len(got) != 1 || !strings.Contains(got[0], `"kvstore.sync" is read at`) {
		t.Errorf("deleting the kvstore.sync row: drift = %q", got)
	}

	extra := fstest.MapFS{"x.go": {Data: []byte("package x\n\nfunc f(p interface{ GetInt(string, int) int }) int { return p.GetInt(\"x\", 1) }\n")}}
	for name, where := range readProperties(t, extra) {
		read[name] = where
	}
	got = propertyDrift(documentedProperties(readme), read)
	if len(got) != 1 || !strings.Contains(got[0], `"x" is read at x.go:3`) {
		t.Errorf("an undocumented GetInt(\"x\", 1): drift = %q", got)
	}
}
