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

// Every property the code reads must also be set where some run
// starts — a workloads/ file, a CI step (by -p, or by the ycsbt flag
// that sets it), the figure sweeps (cmd/experiments, internal/bench) or
// the benchmark harness (benchmark/) — or sit on unsetProperties with
// the reason it stays. A property no run sets is an option nothing
// exercises.

// unsetProperties are the properties read that no run sets, each with
// why it stays.
var unsetProperties = map[string]string{
	// YCSB's core and CEW workload properties: a property file written
	// for YCSB sets them, and its defaults are YCSB's.
	"deleteproportion":        "CEW's operation mix (Listing 2 names every proportion)",
	"fieldlengthdistribution": "YCSB core workload property",
	"insertcount":             "YCSB core workload property (the load range of one of several clients)",
	"insertorder":             "YCSB core workload property",
	"insertstart":             "YCSB core workload property (the load range of one of several clients)",
	"scanlengthdistribution":  "YCSB core workload property",
	"target":                  "YCSB's throttle, ycsbt -target",
	"zeropadding":             "YCSB core workload property",
	// The model bindings' knobs: each default is the model the figures
	// and CI use, and the property is how a run departs from it.
	"cloudsim.preset":          "cloudsim binding: the container model (txnkv's was/gcs backends build the presets directly)",
	"cloudsim.readlatency_us":  "cloudsim binding: overrides the preset's read latency",
	"cloudsim.writelatency_us": "cloudsim binding: overrides the preset's write latency",
	"cloudsim.ratelimit":       "cloudsim binding: overrides the preset's request-rate ceiling",
	"cloudsim.poolsize":        "cloudsim binding: overrides the preset's connection pool",
	"cloudsim.contention_us":   "cloudsim binding: overrides the preset's per-waiter wait",
	"cloudsim.blindupdates":    "cloudsim binding: an update as one unconditional PUT instead of read-merge-write",
	"kvstore.path":             "kvstore binding: a path, the WAL (kvserver -wal in process)",
	"obs.enabled":              "ycsbt -ops-addr sets it; no CI step runs ycsbt with an ops listener",
}

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
	walkGo(t, fsys, ".", func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit := getterKey(n); lit != nil {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					if _, seen := out[name]; !seen {
						out[name] = fset.Position(lit.Pos()).String()
					}
				}
			}
			return true
		})
	})
	return out
}

// walkGo parses every non-test Go file under dir of fsys and hands it
// to fn, skipping hidden and testdata directories and the modules
// nested below dir (a directory with its own go.mod).
func walkGo(t *testing.T, fsys fs.FS, dir string, fn func(*token.FileSet, *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := fs.WalkDir(fsys, dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == dir {
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
		fn(fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// getterKey returns the literal key of a property getter call, nil for
// any other node.
func getterKey(n ast.Node) *ast.BasicLit {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !propertyGetters[sel.Sel.Name] {
		return nil
	}
	if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
		return lit
	}
	return nil
}

// runStartCode is the Go code that starts runs of its own: the figure
// sweeps and the benchmark harness.
var runStartCode = []string{"cmd/experiments", "internal/bench", "benchmark"}

var (
	// propertyLine is a workload file's key=value line.
	propertyLine = regexp.MustCompile(`(?m)^\s*([\w.+-]+)\s*=`)
	// overrideArg is a -p key=value override on a command line.
	overrideArg = regexp.MustCompile(`(?:^|\s)-p\s+([\w.+-]+)=`)
)

// setProperties returns every property name a run start sets, each
// with the first place that sets it: the key=value lines of workloads/,
// the -p overrides and property-setting ycsbt flags of CI's commands,
// and any string literal of the run-start Go code that is a name or
// begins with one and "=" (a key of a property map, a Set argument, a
// "-p" value) but is not the key of a property read.
func setProperties(t *testing.T, fsys fs.FS) map[string]string {
	t.Helper()
	out := make(map[string]string)
	add := func(name, where string) {
		if _, seen := out[name]; !seen {
			out[name] = where
		}
	}
	workloads, err := fs.ReadDir(fsys, "workloads")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		p := path.Join("workloads", w.Name())
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range propertyLine.FindAllStringSubmatch(string(src), -1) {
			add(m[1], p)
		}
	}

	const ci = ".github/workflows/ci.yml"
	src, err := fs.ReadFile(fsys, ci)
	if err != nil {
		t.Fatal(err)
	}
	flags := ycsbtFlagProperties(t, fsys)
	// One command per line once continuations are joined; a kvserver
	// command's flags are its own, not ycsbt's.
	for _, cmd := range strings.Split(strings.ReplaceAll(string(src), "\\\n", " "), "\n") {
		for _, m := range overrideArg.FindAllStringSubmatch(cmd, -1) {
			add(m[1], ci)
		}
		if strings.Contains(cmd, "kvserver") {
			continue
		}
		for _, field := range strings.Fields(cmd) {
			flag, _, _ := strings.Cut(field, "=")
			for _, name := range flags[flag] {
				add(name, ci+" ("+flag+")")
			}
		}
	}

	for _, dir := range runStartCode {
		walkGo(t, fsys, dir, func(fset *token.FileSet, f *ast.File) {
			keys := make(map[*ast.BasicLit]bool)
			ast.Inspect(f, func(n ast.Node) bool {
				if lit := getterKey(n); lit != nil {
					keys[lit] = true
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING || keys[lit] {
					return true
				}
				if v, err := strconv.Unquote(lit.Value); err == nil {
					name, _, _ := strings.Cut(v, "=")
					add(name, fset.Position(lit.Pos()).String())
				}
				return true
			})
		})
	}
	return out
}

// ycsbtFlagProperties maps each cmd/ycsbt flag ("-threads") to the
// properties it sets: the properties.Set calls under an if on the flag's
// value.
func ycsbtFlagProperties(t *testing.T, fsys fs.FS) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	walkGo(t, fsys, "cmd/ycsbt", func(_ *token.FileSet, f *ast.File) {
		flagOf := make(map[string]string) // variable → its flag
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if call, ok := v.(*ast.CallExpr); ok && len(call.Args) > 0 && i < len(n.Names) {
						if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							name, _ := strconv.Unquote(lit.Value)
							flagOf[n.Names[i].Name] = "-" + name
						}
					}
				}
			case *ast.IfStmt:
				star, ok := ast.Unparen(condOperand(n.Cond)).(*ast.StarExpr)
				if !ok {
					return true
				}
				id, ok := star.X.(*ast.Ident)
				if !ok || flagOf[id.Name] == "" {
					return true
				}
				ast.Inspect(n.Body, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok || len(call.Args) != 2 {
						return true
					}
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Set" {
						if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
							name, _ := strconv.Unquote(lit.Value)
							out[flagOf[id.Name]] = append(out[flagOf[id.Name]], name)
						}
					}
					return true
				})
			}
			return true
		})
	})
	return out
}

// condOperand is the left operand of a comparison (*x != ""), or the
// condition itself.
func condOperand(e ast.Expr) ast.Expr {
	if b, ok := e.(*ast.BinaryExpr); ok {
		return b.X
	}
	return e
}

// unsetReads lists each property read that no run sets and allow does
// not excuse, and each allow entry that is not such a property.
func unsetReads(read, set map[string]string, allow map[string]string) []string {
	var out []string
	for name, where := range read {
		if _, ok := set[name]; !ok && allow[name] == "" {
			out = append(out, "property "+strconv.Quote(name)+" is read at "+where+" but no run sets it")
		}
	}
	for name := range allow {
		if _, ok := read[name]; !ok {
			out = append(out, "unsetProperties excuses "+strconv.Quote(name)+", which no product code reads")
		} else if where, ok := set[name]; ok {
			out = append(out, "unsetProperties excuses "+strconv.Quote(name)+", which "+where+" sets")
		}
	}
	sort.Strings(out)
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

	row := "| `kvstore.path` |"
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
	if len(got) != 1 || !strings.Contains(got[0], `"kvstore.path" is read at`) {
		t.Errorf("deleting the kvstore.path row: drift = %q", got)
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

func TestEveryPropertyIsSetByARun(t *testing.T) {
	fsys := os.DirFS(".")
	for _, msg := range unsetReads(readProperties(t, fsys), setProperties(t, fsys), unsetProperties) {
		t.Error(msg)
	}
}

// The check fails on a read that no run sets.
func TestUnsetPropertyIsCaught(t *testing.T) {
	fsys := os.DirFS(".")
	read, set := readProperties(t, fsys), setProperties(t, fsys)
	read["x"] = "x.go:3"
	got := unsetReads(read, set, unsetProperties)
	if len(got) != 1 || !strings.Contains(got[0], `"x" is read at x.go:3 but no run sets it`) {
		t.Errorf("a GetInt(\"x\", 1) no run sets: unset = %q", got)
	}
}

// Every flag cmd/kvserver declares must be passed where some kvserver
// run starts — a kvserver command line in CI or the Makefile, or a
// root e2e test that execs the binary — or sit on unpassedFlags with
// the reason it stays. A flag no run passes is an option nothing
// exercises.

// unpassedFlags are the kvserver flags no run passes, each with why it
// stays.
var unpassedFlags = map[string]string{
	"-max-inflight": "admission control: tests shed through its in-process twin, NodeOptions.MaxInflight, and the benchmark harness pins kvwire.NewCore's bound at 0",
}

// kvserverCmd matches a word that runs the kvserver binary
// (/tmp/kvserver, ./cmd/kvserver).
var kvserverCmd = regexp.MustCompile(`^["']?[\w./$-]*kvserver["']?$`)

// declaredFlags returns every flag cmd/kvserver declares through the
// flag package ("-addr"), each with where it is declared.
func declaredFlags(t *testing.T, fsys fs.FS) map[string]string {
	t.Helper()
	out := make(map[string]string)
	walkGo(t, fsys, "cmd/kvserver", func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				out["-"+name] = fset.Position(lit.Pos()).String()
			}
			return true
		})
	})
	return out
}

// flagName is the flag an argument passes ("-wal" for -wal=x or
// --wal), or "" for an argument that is no flag.
func flagName(arg string) string {
	if !strings.HasPrefix(arg, "-") {
		return ""
	}
	name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
	return "-" + name
}

// passedFlags returns every flag some kvserver run passes, each with
// the first place that passes it: the kvserver command lines of CI and
// the Makefile (continuations joined, up to the end of the command),
// and the string arguments of the root e2e tests' exec.Command calls
// that run the buildKVServer binary.
func passedFlags(t *testing.T, fsys fs.FS) map[string]string {
	t.Helper()
	out := make(map[string]string)
	add := func(name, where string) {
		if _, seen := out[name]; !seen && name != "" {
			out[name] = where
		}
	}
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		src, err := fs.ReadFile(fsys, file)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.ReplaceAll(string(src), "\\\n", " "), "\n") {
			in := false // inside a kvserver command
			for _, field := range strings.Fields(line) {
				switch {
				case kvserverCmd.MatchString(field):
					in = true
				case strings.ContainsAny(field, "&;|)"):
					in = false
				case in:
					add(flagName(field), file)
				}
			}
		}
	}
	tests, err := fs.Glob(fsys, "*_e2e_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range tests {
		src, err := fs.ReadFile(fsys, file)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, file, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !runsKVServer(call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					v, _ := strconv.Unquote(lit.Value)
					add(flagName(v), fset.Position(lit.Pos()).String())
				}
			}
			return true
		})
	}
	return out
}

// runsKVServer reports whether call is an exec.Command or
// exec.CommandContext whose arguments include a buildKVServer call.
func runsKVServer(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Command" && sel.Sel.Name != "CommandContext") {
		return false
	}
	for _, arg := range call.Args {
		if c, ok := arg.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "buildKVServer" {
				return true
			}
		}
	}
	return false
}

// unpassed lists each declared flag that no run passes and allow does
// not excuse, and each allow entry that is not such a flag.
func unpassed(declared, passed, allow map[string]string) []string {
	var out []string
	for name, where := range declared {
		if _, ok := passed[name]; !ok && allow[name] == "" {
			out = append(out, "kvserver flag "+name+" is declared at "+where+" but no run passes it")
		}
	}
	for name := range allow {
		if _, ok := declared[name]; !ok {
			out = append(out, "unpassedFlags excuses "+name+", which cmd/kvserver does not declare")
		} else if where, ok := passed[name]; ok {
			out = append(out, "unpassedFlags excuses "+name+", which "+where+" passes")
		}
	}
	sort.Strings(out)
	return out
}

func TestEveryKVServerFlagIsPassedByARun(t *testing.T) {
	fsys := os.DirFS(".")
	declared := declaredFlags(t, fsys)
	if len(declared) == 0 {
		t.Fatal("found no flag declared in cmd/kvserver")
	}
	for _, msg := range unpassed(declared, passedFlags(t, fsys), unpassedFlags) {
		t.Error(msg)
	}
}

// The check fails on a hand-added kvserver flag that nothing passes.
func TestUnpassedFlagIsCaught(t *testing.T) {
	fsys := os.DirFS(".")
	declared, passed := declaredFlags(t, fsys), passedFlags(t, fsys)
	extra := fstest.MapFS{"cmd/kvserver/x.go": {Data: []byte("package main\n\nimport \"flag\"\n\nvar x = flag.Int(\"x\", 0, \"\")\n")}}
	for name, where := range declaredFlags(t, extra) {
		declared[name] = where
	}
	got := unpassed(declared, passed, unpassedFlags)
	if len(got) != 1 || !strings.Contains(got[0], "kvserver flag -x is declared at cmd/kvserver/x.go:5") {
		t.Errorf("a flag.Int(\"x\", ...) no run passes: unpassed = %q", got)
	}
}
