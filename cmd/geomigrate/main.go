// Command geomigrate rewrites FootprintDB snapshot files of an older
// columnar version (internal/colstore) as the current one, and
// diagnoses existing files. A file without the columnar magic — a
// trajectory dataset, say — is "not a columnar snapshot" to every mode,
// which exits 1.
//
// Convert mode reads a columnar file of any version this release reads
// and rewrites it as the current version, atomically, next to the
// destination. An ingest checkpoint keeps its meta: typed meta as it
// is, and the gob meta of older releases rewritten in the typed codec
// that recovery reads:
//
//	geomigrate convert -in partA.db -out partA.col
//
// Verify mode opens a file the way geoserve would — checking every
// section CRC — and additionally loads it through BOTH the mmap and the
// read path and cross-checks that the two produce identical databases:
//
//	geomigrate verify -in partA.col
//
// Info mode prints what the file is without fully validating payloads:
//
//	geomigrate info -in partA.col
package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"geofootprint/internal/colstore"
	"geofootprint/internal/faultfs"
	"geofootprint/internal/ingest"
	"geofootprint/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("geomigrate: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "convert":
		convert(os.Args[2:])
	case "verify":
		verify(os.Args[2:])
	case "info":
		info(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: geomigrate convert|verify|info [flags]")
	os.Exit(2)
}

func convert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "source snapshot (any columnar version; required)")
	out := fs.String("out", "", "destination path (required)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fs.Usage()
		os.Exit(2)
	}
	db, meta, err := store.OpenMetaFS(faultfs.OS, *in)
	if err != nil {
		log.Fatal(err)
	}
	if meta, err = typedMeta(meta); err != nil {
		log.Fatalf("%s: %v", *in, err)
	}
	if err := store.WriteColumnar(*out, db.Columnar(meta)); err != nil {
		log.Fatal(err)
	}
	// db's columns may alias a mapping only db keeps alive.
	runtime.KeepAlive(db)
	log.Printf("wrote %s (columnar): %d users, %d regions", *out, db.Len(), db.NumRegions())
}

// typedMeta returns a snapshot's meta blob in the typed checkpoint
// codec: nil and typed meta unchanged, and the gob meta of older
// releases decoded and re-encoded. Their meta type had ingest.State's
// two fields, and gob matches fields by name.
func typedMeta(meta []byte) ([]byte, error) {
	if meta == nil {
		return nil, nil
	}
	_, err := ingest.DecodeState(meta)
	if !errors.Is(err, ingest.ErrLegacyMeta) {
		return meta, err
	}
	var state ingest.State
	if err := gob.NewDecoder(bytes.NewReader(meta)).Decode(&state); err != nil {
		return nil, fmt.Errorf("decoding gob checkpoint meta: %w", err)
	}
	return ingest.EncodeState(nil, state), nil
}

func verify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "snapshot to verify (required)")
	fs.Parse(args)
	if *in == "" {
		fs.Usage()
		os.Exit(2)
	}
	// The auto path is what geoserve runs: magic check and full CRC
	// verification.
	db, err := store.Load(*in)
	if err != nil {
		if errors.Is(err, store.ErrCorruptSnapshot) {
			log.Fatalf("CORRUPT: %v", err)
		}
		log.Fatal(err)
	}
	// Cross-check the two load paths against each other. Any divergence
	// means a bug in exactly one of them, which is the failure this
	// subcommand exists to catch before geoserve does.
	viaMmap, err := store.LoadColumnar(*in, colstore.ModeMmap)
	if err != nil {
		log.Fatalf("mmap load: %v", err)
	}
	viaRead, err := store.LoadColumnar(*in, colstore.ModeRead)
	if err != nil {
		log.Fatalf("read load: %v", err)
	}
	if err := diffDBs(viaMmap, viaRead); err != nil {
		log.Fatalf("mmap and read paths disagree: %v", err)
	}
	log.Printf("OK (columnar): %d users, %d regions, sketches=%v; mmap and read paths agree",
		db.Len(), db.NumRegions(), db.SketchesEnabled())
}

// diffDBs compares every persisted field of two databases bit by bit.
func diffDBs(a, b *store.FootprintDB) error {
	if a.Name != b.Name {
		return fmt.Errorf("name %q vs %q", a.Name, b.Name)
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("%d vs %d users", a.Len(), b.Len())
	}
	for u := range a.IDs {
		if a.IDs[u] != b.IDs[u] {
			return fmt.Errorf("user %d: ID %d vs %d", u, a.IDs[u], b.IDs[u])
		}
		if a.Norm(u) != b.Norm(u) {
			return fmt.Errorf("user %d: norm mismatch", u)
		}
		if a.MBR(u) != b.MBR(u) {
			return fmt.Errorf("user %d: MBR mismatch", u)
		}
		fa, fb := a.Row(u), b.Row(u)
		if len(fa) != len(fb) {
			return fmt.Errorf("user %d: %d vs %d regions", u, len(fa), len(fb))
		}
		for r := range fa {
			if fa[r] != fb[r] {
				return fmt.Errorf("user %d region %d mismatch", u, r)
			}
		}
	}
	if a.SketchParams != b.SketchParams {
		return fmt.Errorf("sketch params mismatch")
	}
	if !a.SketchesEnabled() {
		return nil
	}
	for u := range a.Len() {
		sa, sb := a.Sketch(u), b.Sketch(u)
		if len(sa.Cells) != len(sb.Cells) {
			return fmt.Errorf("user %d: sketch size mismatch", u)
		}
		for i := range sa.Cells {
			if sa.Cells[i] != sb.Cells[i] || sa.Mass[i] != sb.Mass[i] || sa.Peak[i] != sb.Peak[i] || sa.Root[i] != sb.Root[i] {
				return fmt.Errorf("user %d: sketch cell %d mismatch", u, i)
			}
		}
	}
	return nil
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "snapshot to describe (required)")
	fs.Parse(args)
	if *in == "" {
		fs.Usage()
		os.Exit(2)
	}
	st, err := os.Stat(*in)
	if err != nil {
		log.Fatal(err)
	}
	snap, err := colstore.Open(*in, colstore.ModeRead)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: columnar v%d, %d bytes\n", *in, snap.Version, st.Size())
	if snap.Version != colstore.Version {
		fmt.Printf("  an older version: `geomigrate convert` rewrites it as v%d\n", colstore.Version)
	}
	fmt.Printf("  users=%d regions=%d sketches=%v", snap.NumUsers(), snap.NumRegions(), snap.HasSketches())
	if snap.HasSketches() {
		fmt.Printf(" (g=%d, %d cells)", snap.SketchG, len(snap.Cells))
	}
	fmt.Println()
	if snap.Meta != nil {
		fmt.Printf("  meta section: %d bytes (ingest checkpoint state)\n", len(snap.Meta))
	}
}
