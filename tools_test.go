package geofootprint

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandLineTools builds every cmd/ binary and drives the full
// pipeline through their CLI surfaces:
//
//	geogen → geoextract → geoquery / geocluster, plus geobench.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI integration test in -short mode")
	}
	bin := t.TempDir()
	data := t.TempDir()

	tools := []string{"geogen", "geoextract", "geoquery", "geocluster", "geobench", "geoserve", "geofig"}
	for _, tool := range tools {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	run := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
		}
		return string(out)
	}

	dsBin := filepath.Join(data, "ds.bin")
	dsText := filepath.Join(data, "ds.csv")
	dbPath := filepath.Join(data, "fp.db")

	// geogen: binary (the default) and text outputs.
	out := run("geogen", "-part", "A", "-users", "120", "-o", dsBin)
	if !strings.Contains(out, "120 users") {
		t.Errorf("geogen output: %q", out)
	}
	run("geogen", "-part", "B", "-users", "30", "-format", "text", "-o", dsText)
	if fi, err := os.Stat(dsText); err != nil || fi.Size() == 0 {
		t.Fatalf("geogen text output missing: %v", err)
	}

	// geoextract on the binary dataset.
	out = run("geoextract", "-i", dsBin, "-o", dbPath)
	if !strings.Contains(out, "120 users") {
		t.Errorf("geoextract output: %q", out)
	}
	// ... and on the text dataset (duration weights, extent mode).
	out = run("geoextract", "-i", dsText, "-weight", "duration",
		"-mode", "extent", "-o", filepath.Join(data, "fp2.db"))
	if !strings.Contains(out, "30 users") {
		t.Errorf("geoextract text output: %q", out)
	}

	// geoquery across all methods: every method prints the same
	// result lines (the header names the method and the timings).
	var ranking string
	for _, method := range []string{"linear", "iterative", "batch", "user-centric", "sketch"} {
		out = run("geoquery", "-db", dbPath, "-user", "5", "-k", "3", "-method", method)
		_, results, _ := strings.Cut(out, "\n")
		if !strings.Contains(results, "similarity") {
			t.Errorf("geoquery %s output: %q", method, out)
		}
		if ranking == "" {
			ranking = results
		} else if results != ranking {
			t.Errorf("geoquery %s printed\n%s\nbut linear printed\n%s", method, results, ranking)
		}
	}
	// An unknown method is refused by the one name → engine mapping.
	if msg, err := exec.Command(filepath.Join(bin, "geoquery"), "-db", dbPath, "-user", "5", "-method", "quantum").CombinedOutput(); err == nil || !strings.Contains(string(msg), `unknown method "quantum"`) {
		t.Errorf("geoquery -method quantum: err=%v, output %q", err, msg)
	}
	out = run("geoquery", "-db", dbPath, "-user", "5", "-k", "3", "-exclude-self")
	if strings.Contains(out, "user 5       ") {
		t.Errorf("exclude-self still returned the query user: %q", out)
	}
	// Explanations attach contributing overlaps.
	out = run("geoquery", "-db", dbPath, "-user", "5", "-k", "2", "-explain")
	if !strings.Contains(out, "from overlap") {
		t.Errorf("explain output missing overlaps: %q", out)
	}
	// Ad-hoc footprints query without a user ID.
	out = run("geoquery", "-db", dbPath, "-adhoc", "0,0,1,1", "-k", "2")
	if !strings.Contains(out, "ad-hoc footprint") {
		t.Errorf("adhoc output: %q", out)
	}

	// geocluster.
	out = run("geocluster", "-db", dbPath, "-sample", "60", "-k", "3")
	if !strings.Contains(out, "cluster 3:") {
		t.Errorf("geocluster output: %q", out)
	}

	// geobench, single cheap experiment.
	out = run("geobench", "-exp", "table1", "-scale", "0.0006", "-parts", "A")
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "avg#regions") {
		t.Errorf("geobench output: %q", out)
	}
	// A name outside the experiment table exits non-zero and says what
	// is valid; a retired serving experiment points at the ledger.
	for exp, want := range map[string]string{
		"nosuch": "valid: table1, ",
		"qps":    "bash benchmark/run.sh --workload topk_hot",
	} {
		msg, err := exec.Command(filepath.Join(bin, "geobench"), "-exp", exp, "-json", "").CombinedOutput()
		if err == nil || !strings.Contains(string(msg), want) {
			t.Errorf("geobench -exp %s: err=%v, output %q, want %q", exp, err, msg, want)
		}
	}
}

// TestCommandLineErrors verifies the tools fail loudly on bad input.
func TestCommandLineErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI integration test in -short mode")
	}
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(bin, "geogen"), "./cmd/geogen")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building geogen: %v\n%s", err, out)
	}
	// Unknown part must exit non-zero.
	c := exec.Command(filepath.Join(bin, "geogen"), "-part", "Z", "-o", filepath.Join(bin, "x"))
	if err := c.Run(); err == nil {
		t.Error("geogen with unknown part succeeded")
	}
	// Missing -o must exit non-zero.
	c = exec.Command(filepath.Join(bin, "geogen"), "-part", "A")
	if err := c.Run(); err == nil {
		t.Error("geogen without -o succeeded")
	}
}
