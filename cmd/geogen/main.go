// Command geogen generates a synthetic indoor-mobility dataset (the
// ATC-substitute of the evaluation) and writes it to disk in gob,
// binary or text format.
//
// Usage:
//
//	geogen -part A -scale 0.05 -o partA.gob
//	geogen -part D -scale 0.01 -format text -o partD.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"geofootprint/internal/synth"
	"geofootprint/internal/traj"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("geogen: ")

	part := flag.String("part", "A", "evaluation part to generate: A, B, C or D")
	scale := flag.Float64("scale", 0.05, "fraction of the paper's user count (1.0 = full size)")
	out := flag.String("o", "", "output path (required)")
	format := flag.String("format", "gob", "output format: gob, binary or text")
	seed := flag.Int64("seed", 0, "override the part's default random seed (0 = keep default)")
	users := flag.Int("users", 0, "override the user count directly (0 = derive from scale)")
	stats := flag.Bool("stats", false, "print dataset statistics after generation")
	flag.Parse()

	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := synth.PartConfig(*part, *scale)
	if err != nil {
		log.Fatal(err)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *users > 0 {
		cfg.Users = *users
	}

	ds, _, err := synth.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	switch *format {
	case "gob":
		err = traj.SaveGob(*out, ds)
	case "binary":
		var f *os.File
		f, err = os.Create(*out)
		if err == nil {
			err = traj.WriteBinary(f, ds)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	case "text":
		var f *os.File
		f, err = os.Create(*out)
		if err == nil {
			err = traj.WriteText(f, ds)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
	default:
		log.Fatalf("unknown format %q (want gob, binary or text)", *format)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d users, %d sessions, %d locations\n",
		*out, len(ds.Users), ds.NumSessions(), ds.NumLocations())
	if *stats {
		fmt.Println(traj.Stats(ds))
	}
}
