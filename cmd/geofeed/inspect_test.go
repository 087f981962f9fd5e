package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/ingest"
	"geofootprint/internal/store"
)

// inspect reports every record kind the write path logs — a sample
// batch, an upsert and a remove — and none as a format mismatch; a
// torn tail is reported as damage.
func TestInspectReportsEveryRecordKind(t *testing.T) {
	dir := t.TempDir()
	cfg := ingest.Config{
		WALPath:      filepath.Join(dir, "ingest.wal"),
		SnapshotPath: filepath.Join(dir, "ingest.snap"),
		Extract:      ingest.DefaultExtract(),
	}
	p, err := ingest.New(cfg, &ingest.DBSink{DB: &store.FootprintDB{Name: "ingest"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	if _, err := p.Ingest([]ingest.Sample{{User: 7, X: 0.5, Y: 0.5, T: 1}, {User: 7, X: 0.5, Y: 0.5, T: 2}}); err != nil {
		t.Fatal(err)
	}
	f := core.Footprint{
		{Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}, Weight: 1},
		{Rect: geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.4, MaxY: 0.4}, Weight: 2},
	}
	if _, err := p.Upsert(ctx, 8, f); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Remove(ctx, 8); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	damaged, err := inspectWAL(&out, cfg.WALPath, true)
	if err != nil || damaged {
		t.Fatalf("inspect = (damaged %v, %v)\n%s", damaged, err, out.String())
	}
	for _, want := range []string{
		"3 records (LSN 1..3), 2 samples, 1 upserts, 1 removes",
		"    2 samples  t=[1, 2]",
		"upsert user 8, 2 regions",
		"remove user 8",
		"tail clean",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "record LSN") {
		t.Errorf("a record was reported undecodable:\n%s", out.String())
	}

	wf, err := os.OpenFile(cfg.WALPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := wf.Close(); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if damaged, err := inspectWAL(&out, cfg.WALPath, false); err != nil || !damaged || !strings.Contains(out.String(), "TAIL DAMAGED") {
		t.Fatalf("torn tail: inspect = (damaged %v, %v)\n%s", damaged, err, out.String())
	}
}
