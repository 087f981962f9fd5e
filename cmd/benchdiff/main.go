// Command benchdiff compares two BENCH_<exp>.json reports (as written
// by geobench -json) and fails when any timing regressed by more than
// a threshold — the guard rail that keeps the repo's performance
// trajectory monotone across PRs.
//
// It walks both JSON documents in parallel and compares every numeric
// leaf whose key marks it as a timing ("*_seconds", "*_micros"): the
// new value may exceed the old by at most -threshold (relative).
// Non-timing numbers (counts, rates, ks) are ignored; structural
// differences (a row present on one side only) are reported but do not
// fail the diff, since experiments legitimately grow new rows.
//
// Usage:
//
//	benchdiff old/BENCH_fig3a.json new/BENCH_fig3a.json
//	benchdiff -threshold 0.10 old.json new.json
//
// Two reports are compared only when their experiment, scale, num_cpu
// and gomaxprocs agree; otherwise benchdiff refuses, naming the fields.
//
// Exit status: 0 when no timing regressed beyond the threshold, 1 when
// at least one did, 2 on usage or read errors and on reports that are
// not comparable.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// headerFields are the report-envelope fields that must agree before
// any timing is compared: a different experiment, scale or core count
// makes every ratio meaningless.
var headerFields = []string{"experiment", "scale", "num_cpu", "gomaxprocs"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.15,
		"maximum allowed relative wall-clock regression (0.15 = +15%)")
	minSeconds := fs.Float64("min-seconds", 0.001,
		"ignore timings below this many seconds (noise floor; micros are converted)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold 0.15] OLD.json NEW.json")
		return 2
	}
	oldDoc, err := readJSON(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	newDoc, err := readJSON(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	oldHdr, _ := oldDoc.(map[string]interface{})
	newHdr, _ := newDoc.(map[string]interface{})
	var mismatch []string
	for _, f := range headerFields {
		if !reflect.DeepEqual(oldHdr[f], newHdr[f]) {
			mismatch = append(mismatch, fmt.Sprintf("%s (%v vs %v)", f, oldHdr[f], newHdr[f]))
		}
	}
	if len(mismatch) > 0 {
		fmt.Fprintf(stderr, "benchdiff: reports are not comparable, they differ in %s\n", strings.Join(mismatch, ", "))
		return 2
	}

	d := differ{threshold: *threshold, minSeconds: *minSeconds}
	d.walk("", oldDoc, newDoc)
	sort.Strings(d.notes)
	for _, n := range d.notes {
		fmt.Fprintln(stdout, n)
	}
	if d.regressions > 0 {
		fmt.Fprintf(stdout, "benchdiff: FAIL — %d timing(s) regressed more than %.0f%% (%d compared)\n",
			d.regressions, *threshold*100, d.compared)
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: OK — %d timings compared, none regressed more than %.0f%%\n",
		d.compared, *threshold*100)
	return 0
}

func readJSON(path string) (interface{}, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v interface{}
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return v, nil
}

type differ struct {
	threshold   float64
	minSeconds  float64
	compared    int
	regressions int
	notes       []string
}

// isTiming reports whether a JSON key names a wall-clock quantity, and
// the factor converting its unit to seconds.
func isTiming(key string) (float64, bool) {
	switch {
	case strings.HasSuffix(key, "_seconds") || strings.Contains(key, "seconds"):
		return 1, true
	case strings.HasSuffix(key, "_micros") || strings.Contains(key, "micros"):
		return 1e-6, true
	}
	return 0, false
}

func (d *differ) walk(path string, oldV, newV interface{}) {
	switch o := oldV.(type) {
	case map[string]interface{}:
		n, ok := newV.(map[string]interface{})
		if !ok {
			d.notes = append(d.notes, fmt.Sprintf("note: %s changed shape (object -> %T)", path, newV))
			return
		}
		for k, ov := range o {
			nv, present := n[k]
			if !present {
				d.notes = append(d.notes, fmt.Sprintf("note: %s.%s only in old report", path, k))
				continue
			}
			d.walk(path+"."+k, ov, nv)
		}
	case []interface{}:
		n, ok := newV.([]interface{})
		if !ok {
			d.notes = append(d.notes, fmt.Sprintf("note: %s changed shape (array -> %T)", path, newV))
			return
		}
		ln := len(o)
		if len(n) < ln {
			ln = len(n)
		}
		if len(o) != len(n) {
			d.notes = append(d.notes, fmt.Sprintf("note: %s has %d rows old vs %d new", path, len(o), len(n)))
		}
		for i := 0; i < ln; i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), o[i], n[i])
		}
	case float64:
		nf, ok := newV.(float64)
		if !ok {
			return
		}
		key := path[strings.LastIndexByte(path, '.')+1:]
		toSeconds, timing := isTiming(key)
		if !timing {
			return
		}
		oldS, newS := o*toSeconds, nf*toSeconds
		if oldS < d.minSeconds && newS < d.minSeconds {
			return // both below the noise floor
		}
		d.compared++
		if oldS <= 0 {
			return
		}
		rel := (newS - oldS) / oldS
		if rel > d.threshold {
			d.regressions++
			d.notes = append(d.notes, fmt.Sprintf("REGRESSION: %s %.4gs -> %.4gs (%+.1f%%)",
				path, oldS, newS, rel*100))
		}
	}
}
