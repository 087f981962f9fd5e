package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	dir := t.TempDir()
	report := func(name string, numCPU int, seconds float64) string {
		path := filepath.Join(dir, name)
		body := fmt.Sprintf(`{"experiment":"fig3a","scale":0.05,"num_cpu":%d,"gomaxprocs":%d,
			"rows":[{"part":"A","queries":200,"batch_seconds":%g}]}`, numCPU, numCPU, seconds)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := report("base.json", 2, 1.0)
	for _, tc := range []struct {
		name   string
		other  string
		exit   int
		output string
	}{
		{"same header, within threshold", report("ok.json", 2, 1.1), 0, "1 timings compared"},
		{"same header, >15% slower", report("slow.json", 2, 1.2), 1, "REGRESSION: .rows[0].batch_seconds"},
		{"differing num_cpu", report("onecore.json", 1, 1.0), 2, "num_cpu (2 vs 1), gomaxprocs (2 vs 1)"},
	} {
		var stdout, stderr bytes.Buffer
		if got := run([]string{base, tc.other}, &stdout, &stderr); got != tc.exit {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.exit)
		}
		if out := stdout.String() + stderr.String(); !strings.Contains(out, tc.output) {
			t.Errorf("%s: output %q lacks %q", tc.name, out, tc.output)
		}
	}
}
