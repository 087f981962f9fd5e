package lint_test

import (
	"strings"
	"testing"

	"geofootprint/internal/lint"
	"geofootprint/internal/lint/analysistest"
	"geofootprint/internal/lint/loader"
)

func TestFloatRange(t *testing.T) {
	analysistest.Run(t, lint.FloatRange,
		"./internal/lint/testdata/src/floatrange/a")
}

func TestAtomicWrite(t *testing.T) {
	analysistest.Run(t, lint.AtomicWrite,
		"./internal/lint/testdata/src/atomicwrite/store",
		"./internal/lint/testdata/src/atomicwrite/wal",
		"./internal/lint/testdata/src/atomicwrite/other",
		"./internal/lint/testdata/src/atomicwrite/ingest")
}

func TestColWrite(t *testing.T) {
	analysistest.Run(t, lint.ColWrite,
		"./internal/lint/testdata/src/colwrite/store",
		"./internal/lint/testdata/src/colwrite/ingest",
		"./internal/lint/testdata/src/colwrite/other")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, lint.HotAlloc,
		"./internal/lint/testdata/src/hotalloc/a")
}

func TestHotMath(t *testing.T) {
	analysistest.Run(t, lint.HotMath,
		"./internal/lint/testdata/src/hotmath/a")
}

func TestSortedFootprint(t *testing.T) {
	analysistest.Run(t, lint.SortedFootprint,
		"./internal/lint/testdata/src/sortedfootprint/a")
}

func TestFootprintRead(t *testing.T) {
	analysistest.Run(t, lint.FootprintRead,
		"./internal/lint/testdata/src/footprintread/a")
}

func TestEpochMut(t *testing.T) {
	analysistest.Run(t, lint.EpochMut,
		"./internal/lint/testdata/src/epochmut/a")
}

func TestCtxCancel(t *testing.T) {
	analysistest.Run(t, lint.CtxCancel,
		"./internal/lint/testdata/src/ctxcancel/a")
}

func TestErrDiscard(t *testing.T) {
	analysistest.Run(t, lint.ErrDiscard,
		"./internal/lint/testdata/src/errdiscard/wal",
		"./internal/lint/testdata/src/errdiscard/app")
}

func TestBodyClose(t *testing.T) {
	analysistest.Run(t, lint.BodyClose,
		"./internal/lint/testdata/src/bodyclose/a",
		"./internal/lint/testdata/src/bodyclose/retry")
}

func TestLockBalance(t *testing.T) {
	analysistest.Run(t, lint.LockBalance,
		"./internal/lint/testdata/src/lockbalance/a")
}

func TestTestOnly(t *testing.T) {
	analysistest.RunModule(t, lint.TestOnly, "internal/lint/testdata/src/testonly")
}

// TestStaleIgnore pins the driver-level stale-suppression detection:
// after a full suite run over the fixture, the unused lockbalance
// directive and the typo'd analyzer name are findings, and the live
// suppression is not. Asserted directly (not via // want) because the
// finding lands on the directive's own line, where a want comment
// cannot sit.
func TestStaleIgnore(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	pkgs, err := loader.Load(root, "./internal/lint/testdata/src/staleignore/a")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	findings, err := lint.Run(pkgs, lint.Analyzers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var stale []lint.Finding
	for _, f := range findings {
		if f.Analyzer == lint.StaleIgnore {
			stale = append(stale, f)
		} else {
			t.Errorf("unexpected non-stale finding: %s", f)
		}
	}
	if len(stale) != 2 {
		t.Fatalf("got %d staleignore findings, want 2: %v", len(stale), stale)
	}
	if got := stale[0].Message; !strings.Contains(got, "lockbalance suppresses nothing") {
		t.Errorf("first stale finding = %q, want lockbalance-suppresses-nothing", got)
	}
	if got := stale[1].Message; !strings.Contains(got, `unknown analyzer "lockbalanec"`) {
		t.Errorf("second stale finding = %q, want unknown-analyzer", got)
	}
	for _, f := range stale {
		if f.Pos.Line == 0 || f.Pos.Filename == "" {
			t.Errorf("stale finding missing position: %+v", f)
		}
	}
}
