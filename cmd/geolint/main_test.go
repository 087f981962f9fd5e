package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// TestSeededViolationFails proves the gate bites: over a fixture
// package with known violations, geolint prints findings and exits 1.
func TestSeededViolationFails(t *testing.T) {
	var out, errw bytes.Buffer
	code := run(moduleRoot(t), []string{"./internal/lint/testdata/src/floatrange/a"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (seeded violations must fail the gate)\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "floatrange") {
		t.Errorf("findings output missing analyzer name:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "finding(s)") {
		t.Errorf("summary line missing:\n%s", errw.String())
	}
}

// TestBadPatternExits2 distinguishes load errors from findings.
func TestBadPatternExits2(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(moduleRoot(t), []string{"./does/not/exist"}, &out, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2 for a load error\nstderr:\n%s", code, errw.String())
	}
}

// TestCleanPackageExitsZero runs the binary's entry point over a
// package known clean (the lint framework itself).
func TestCleanPackageExitsZero(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(moduleRoot(t), []string{"./internal/lint/analysis"}, &out, &errw); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
}

// TestJSONOutput pins the -json wire format: one JSON object per
// finding with module-relative file paths — the contract
// scripts/lintstats.sh diffs against its committed baseline.
func TestJSONOutput(t *testing.T) {
	var out, errw bytes.Buffer
	code := run(moduleRoot(t), []string{"-json", "./internal/lint/testdata/src/floatrange/a"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSON findings emitted")
	}
	for _, line := range lines {
		var f struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line is not valid JSON: %q: %v", line, err)
		}
		if f.Analyzer == "" || f.Message == "" || f.Line == 0 {
			t.Errorf("incomplete finding: %q", line)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("file path not module-relative: %q", f.File)
		}
	}
}

// TestLoadErrorsAllPrinted: exit 2 must carry every failing package's
// diagnostics, not just the first one the loader happened to hit.
func TestLoadErrorsAllPrinted(t *testing.T) {
	var out, errw bytes.Buffer
	code := run(moduleRoot(t), []string{
		"./internal/lint/testdata/src/loaderr/broken",
		"./internal/lint/testdata/src/loaderr/missingdep",
	}, &out, &errw)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, errw.String())
	}
	msg := errw.String()
	if !strings.Contains(msg, "loaderr/broken") {
		t.Errorf("stderr missing the broken package:\n%s", msg)
	}
	if !strings.Contains(msg, "loaderr/nonexistent") {
		t.Errorf("stderr missing the unresolvable import:\n%s", msg)
	}
	for _, line := range strings.Split(strings.TrimSpace(msg), "\n") {
		if !strings.HasPrefix(line, "geolint: ") {
			t.Errorf("unprefixed error line: %q", line)
		}
	}
}

// TestSeededBodyCloseFailsGate seeds a real response-body leak into
// internal/router behind a build tag only this test enables, and proves
// `make lint` would fail: the flow-sensitive analyzers bite on
// production packages, not just fixtures. The tag keeps the seed
// invisible to every other build and to TestRepoClean running in a
// sibling process.
func TestSeededBodyCloseFailsGate(t *testing.T) {
	root := moduleRoot(t)
	seed := filepath.Join(root, "internal", "router", "zz_lintseed_bodyclose_probe.go")
	src := `//go:build lintseed

package router

import "net/http"

func (r *Router) zzSeededLeak(req *http.Request, bad bool) (int, error) {
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	if bad {
		return 0, nil // leaks the body and its connection
	}
	defer resp.Body.Close()
	return resp.StatusCode, nil
}
`
	if err := os.WriteFile(seed, []byte(src), 0o644); err != nil {
		t.Fatalf("writing seed: %v", err)
	}
	t.Cleanup(func() { os.Remove(seed) })
	t.Setenv("GOFLAGS", "-tags=lintseed")

	var out, errw bytes.Buffer
	code := run(root, []string{"./internal/router"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (seeded body leak must fail the gate)\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "bodyclose") {
		t.Errorf("findings missing bodyclose:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "zz_lintseed_bodyclose_probe.go") {
		t.Errorf("finding not attributed to the seeded file:\n%s", out.String())
	}
}

// TestSeededTestOnlyFailsGate seeds an export no binary calls into
// internal/server, behind the build tag TestSeededBodyCloseFailsGate
// uses, and proves a run over that one package judges it against the
// whole program: the rest of the module and the benchmark module load
// as well, and the seed is still a testonly finding.
func TestSeededTestOnlyFailsGate(t *testing.T) {
	root := moduleRoot(t)
	seed := filepath.Join(root, "internal", "server", "zz_lintseed_testonly_probe.go")
	src := `//go:build lintseed

package server

// ZzSeededTestOnly has no caller.
func ZzSeededTestOnly() {}
`
	if err := os.WriteFile(seed, []byte(src), 0o644); err != nil {
		t.Fatalf("writing seed: %v", err)
	}
	t.Cleanup(func() { os.Remove(seed) })
	t.Setenv("GOFLAGS", "-tags=lintseed")

	var out, errw bytes.Buffer
	code := run(root, []string{"./internal/server"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (a seeded test-only export must fail the gate)\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errw.String())
	}
	if got := strings.TrimSpace(out.String()); strings.Count(got, "\n") != 0 ||
		!strings.Contains(got, "zz_lintseed_testonly_probe.go") || !strings.Contains(got, "testonly: func ZzSeededTestOnly") {
		t.Errorf("want exactly the seed's testonly finding, got:\n%s", got)
	}
}
