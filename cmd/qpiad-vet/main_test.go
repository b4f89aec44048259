package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildVet compiles the qpiad-vet binary once per test run.
func buildVet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "qpiad-vet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building qpiad-vet: %v\n%s", err, out)
	}
	return bin
}

// writeModule lays out a throwaway module in dir.
func writeModule(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	files["go.mod"] = "module throwaway\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// runVet executes the binary in dir against ./... and returns combined
// output and exit code.
func runVet(t *testing.T, bin, dir string) (string, int) {
	t.Helper()
	return runVetArgs(t, bin, dir, "./...")
}

// TestStandaloneExitCodes pins the contract `make lint` depends on: a tree
// with a deliberate violation makes qpiad-vet exit non-zero and name the
// analyzer; a clean tree exits 0.
func TestStandaloneExitCodes(t *testing.T) {
	bin := buildVet(t)

	t.Run("violation", func(t *testing.T) {
		dir := t.TempDir()
		writeModule(t, dir, map[string]string{
			"internal/afd/afd.go": `package afd

import "time"

func Mine() int64 { return time.Now().Unix() }
`,
		})
		out, code := runVet(t, bin, dir)
		if code == 0 {
			t.Fatalf("deliberate nodeterm violation must exit non-zero; output:\n%s", out)
		}
		if !strings.Contains(out, "nodeterm") || !strings.Contains(out, "time.Now") {
			t.Errorf("diagnostic should name the analyzer and the offense, got:\n%s", out)
		}
	})

	t.Run("clean", func(t *testing.T) {
		dir := t.TempDir()
		writeModule(t, dir, map[string]string{
			"internal/afd/afd.go": `package afd

import "sort"

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`,
		})
		out, code := runVet(t, bin, dir)
		if code != 0 {
			t.Fatalf("clean tree must exit 0, got %d; output:\n%s", code, out)
		}
	})

	t.Run("suppressed", func(t *testing.T) {
		dir := t.TempDir()
		writeModule(t, dir, map[string]string{
			"internal/afd/afd.go": `package afd

import "time"

func Mine() int64 {
	//lint:allow nodeterm timing is observability-only here
	return time.Now().Unix()
}
`,
		})
		out, code := runVet(t, bin, dir)
		if code != 0 {
			t.Fatalf("allow-suppressed violation must exit 0, got %d; output:\n%s", code, out)
		}
	})
}

// runVetArgs executes the binary in dir with explicit arguments.
func runVetArgs(t *testing.T, bin, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running qpiad-vet: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

// TestVettoolHandshake pins what cmd/go sends a vettool before any work:
// -flags must print the tool's (empty) flag list as JSON, and -V=full a
// version line whose last field is buildID=, which cmd/go folds into its
// cache key. Any other flag is a usage error (exit 2): the standalone
// driver only reports findings.
func TestVettoolHandshake(t *testing.T) {
	bin := buildVet(t)
	dir := t.TempDir()
	if out, code := runVetArgs(t, bin, dir, "-flags"); code != 0 || out != "[]\n" {
		t.Errorf("-flags: exit %d, output %q; want exit 0 and %q", code, out, "[]\n")
	}
	version := regexp.MustCompile(`^qpiad-vet version devel buildID=[0-9a-f]{32}\n$`)
	if out, code := runVetArgs(t, bin, dir, "-V=full"); code != 0 || !version.MatchString(out) {
		t.Errorf("-V=full: exit %d, output %q; want exit 0 and a line matching %s", code, out, version)
	}
	for _, flag := range []string{"-fix", "-json"} {
		out, code := runVetArgs(t, bin, dir, flag, "./...")
		if code != 2 || !strings.Contains(out, "flag provided but not defined: "+flag) {
			t.Errorf("%s: exit %d, want 2 for an undefined flag; output:\n%s", flag, code, out)
		}
	}
}

// TestStaleSuppressions pins satellite behavior: an allow naming an
// unknown analyzer, and an allow that no longer suppresses anything, are
// both reported (as the suppress pseudo-analyzer) and fail the run.
func TestStaleSuppressions(t *testing.T) {
	bin := buildVet(t)
	dir := t.TempDir()
	writeModule(t, dir, map[string]string{
		"internal/afd/afd.go": `package afd

import "sort"

func Keys(m map[string]int) []string {
	//lint:allow nosuchpass the analyzer was renamed away
	var out []string
	for k := range m {
		out = append(out, k)
	}
	//lint:allow nodeterm sort is deterministic, nothing to allow
	sort.Strings(out)
	return out
}
`,
	})
	out, code := runVet(t, bin, dir)
	if code == 0 {
		t.Fatalf("stale suppressions must fail the run; output:\n%s", out)
	}
	for _, want := range []string{"[suppress]", `unknown analyzer "nosuchpass"`, "stale //lint:allow"} {
		if !strings.Contains(out, want) {
			t.Errorf("output should contain %q, got:\n%s", want, out)
		}
	}
}
