// qpiad-vet runs QPIAD's custom invariant analyzers (nodeterm, ctxflow,
// locksafe, nakedgoroutine, tupleescape, and the flow-sensitive errdrop,
// lockbalance, cancelleak — see internal/analysis) in two modes:
//
//	qpiad-vet [patterns...]
//	                              standalone: analyze module packages
//	                              (default ./...) and exit 1 on findings.
//
//	go vet -vettool=$(which qpiad-vet) ./...
//	                              vettool: speak cmd/go's vet.cfg protocol
//	                              (the same one x/tools' unitchecker
//	                              implements), so findings integrate with
//	                              go vet's caching and output.
//
// Both modes audit //lint:allow comments: an allow naming an unknown
// analyzer, or one that no longer suppresses anything, is itself reported
// (as pseudo-analyzer "suppress") so suppressions cannot rot in place.
//
// The binary is stdlib-only; see the internal/analysis package comment for
// why x/tools is not used.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"qpiad/internal/analysis"
	"qpiad/internal/analysis/cancelleak"
	"qpiad/internal/analysis/ctxflow"
	"qpiad/internal/analysis/errdrop"
	"qpiad/internal/analysis/load"
	"qpiad/internal/analysis/lockbalance"
	"qpiad/internal/analysis/locksafe"
	"qpiad/internal/analysis/nakedgoroutine"
	"qpiad/internal/analysis/nodeterm"
	"qpiad/internal/analysis/tupleescape"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	cancelleak.Analyzer,
	ctxflow.Analyzer,
	errdrop.Analyzer,
	lockbalance.Analyzer,
	locksafe.Analyzer,
	nakedgoroutine.Analyzer,
	nodeterm.Analyzer,
	tupleescape.Analyzer,
}

func main() {
	// cmd/go probes vettools with -flags and -V=full before sending any
	// work; handle those before normal flag parsing.
	for _, arg := range os.Args[1:] {
		switch arg {
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		case "-V=full", "--V=full":
			fmt.Println(versionLine())
			return
		}
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qpiad-vet [packages]\n       go vet -vettool=qpiad-vet [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	args := flag.Args()

	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vettoolMode(args[0]))
	}
	os.Exit(standaloneMode(args))
}

// versionLine answers `qpiad-vet -V=full`. cmd/go folds this into its
// action cache key, so it must change whenever the tool's behavior does:
// hash the executable itself.
func versionLine() string {
	sum := [sha256.Size]byte{}
	if exe, err := os.Executable(); err == nil {
		if b, err := os.ReadFile(exe); err == nil {
			sum = sha256.Sum256(b)
		}
	}
	return fmt.Sprintf("qpiad-vet version devel buildID=%x", sum[:16])
}

// standaloneMode loads the module packages itself and reports findings.
func standaloneMode(patterns []string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpiad-vet:", err)
		return 1
	}
	units, err := load.Module(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpiad-vet:", err)
		return 1
	}
	known := analysis.Names(analyzers)
	prefix := cwd + string(filepath.Separator) // diagnostics print relative paths
	found := false
	for _, u := range units {
		diags, err := analysis.RunWithSuppressionAudit(u, analyzers, known)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpiad-vet:", err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, strings.TrimPrefix(analysis.Format(u.Fset, d), prefix))
			found = true
		}
	}
	if found {
		return 1
	}
	return 0
}

// vetConfig mirrors the JSON cmd/go writes for each vet unit (the contract
// x/tools' unitchecker documents).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vettoolMode analyzes one package unit described by a vet.cfg file.
func vettoolMode(cfgPath string) int {
	b, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpiad-vet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(b, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "qpiad-vet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// cmd/go requires the facts file to exist even though this suite
	// exports no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "qpiad-vet:", err)
			return 1
		}
	}
	if cfg.VetxOnly || len(cfg.GoFiles) == 0 {
		return 0
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		f, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(f)
	})
	unit, err := load.Check(fset, imp, cfg.ImportPath, cfg.Dir, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "qpiad-vet:", err)
		return 1
	}
	diags, err := analysis.RunWithSuppressionAudit(unit, analyzers, analysis.Names(analyzers))
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpiad-vet:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, analysis.Format(fset, d))
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
