// Package analysistest runs analyzers over fixture packages and checks
// their diagnostics against // want "regexp" comments, mirroring the
// x/tools package of the same name.
//
// Fixtures live under <testdata>/src/<importpath>/. Every .go file in the
// fixture directory is parsed; imports resolve first against other fixture
// packages under src/, then against the standard library (type-checked
// from GOROOT source, so no export data or network is needed).
//
// Expectations: a comment `// want "re"` (one or more quoted regexps) on a
// line means each regexp must match a diagnostic message reported on that
// line; lines without a want comment must produce no diagnostics. The
// filters in analysis.Run apply, so fixtures can (and do) assert that
// _test.go files and //lint:allow'd lines stay clean.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"qpiad/internal/analysis"
)

// TestData returns the absolute path of the shared testdata directory,
// which sits one level above each analyzer package.
func TestData(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// Run loads each fixture package and verifies the analyzers' diagnostics
// against its want comments.
func Run(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := newLoader(testdata)
	for _, path := range pkgPaths {
		t.Run(path, func(t *testing.T) {
			unit, err := ld.load(path)
			if err != nil {
				t.Fatalf("load fixture %s: %v", path, err)
			}
			diags, err := analysis.Run(unit, analyzers)
			if err != nil {
				t.Fatal(err)
			}
			checkWants(t, unit, diags)
		})
	}
}

// wantRe extracts the quoted regexps from a want comment.
var (
	wantLineRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
	wantArgRe  = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

func checkWants(t *testing.T, unit *analysis.Unit, diags []analysis.Diagnostic) {
	t.Helper()
	wants := make(map[string][]*expectation) // "file:line" -> expectations
	for _, f := range unit.Files {
		filename := unit.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue // diagnostics there are filtered; wants would never match
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantLineRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := unit.Fset.Position(c.Slash).Line
				key := fmt.Sprintf("%s:%d", filename, line)
				for _, qm := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
					raw, err := strconv.Unquote(`"` + qm[1] + `"`)
					if err != nil {
						t.Fatalf("%s: bad want string %q: %v", key, qm[1], err)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, raw, err)
					}
					wants[key] = append(wants[key], &expectation{re: re, raw: raw})
				}
			}
		}
	}

	for _, d := range diags {
		p := unit.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
		exps := wants[key]
		found := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", key, d.Analyzer, d.Message)
		}
	}
	var keys []string
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, e := range wants[k] {
			if !e.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, e.raw)
			}
		}
	}
}

// loader type-checks fixture packages, resolving imports against the
// fixture tree first and GOROOT source second.
type loader struct {
	root string // <testdata>/src
	fset *token.FileSet
	src  types.Importer         // GOROOT source importer
	pkgs map[string]*loadResult // fixture package cache
	info *types.Info            // shared info across fixture packages
}

type loadResult struct {
	unit *analysis.Unit
	err  error
}

func newLoader(testdata string) *loader {
	l := &loader{
		root: filepath.Join(testdata, "src"),
		fset: token.NewFileSet(),
		pkgs: make(map[string]*loadResult),
		info: analysis.NewInfo(),
	}
	l.src = importer.ForCompiler(l.fset, "source", nil)
	return l
}

// Import implements types.Importer so fixture packages can import each
// other (e.g. a stub qpiad/internal/source).
func (l *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.root, filepath.FromSlash(path)); isDir(dir) {
		res, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return res.Pkg, nil
	}
	return l.src.Import(path)
}

// load parses and type-checks one fixture package directory.
func (l *loader) load(path string) (*analysis.Unit, error) {
	if res, ok := l.pkgs[path]; ok {
		return res.unit, res.err
	}
	// Mark in-progress to fail fast on import cycles.
	l.pkgs[path] = &loadResult{err: fmt.Errorf("import cycle through %q", path)}

	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.pkgs[path] = &loadResult{err: err}
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			l.pkgs[path] = &loadResult{err: err}
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		err = fmt.Errorf("typecheck %s: %w", path, err)
		l.pkgs[path] = &loadResult{err: err}
		return nil, err
	}
	unit := &analysis.Unit{Fset: l.fset, Files: files, Pkg: pkg, Info: l.info}
	l.pkgs[path] = &loadResult{unit: unit}
	return unit, nil
}

func isDir(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.IsDir()
}
