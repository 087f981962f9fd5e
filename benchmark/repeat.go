package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// declaration is BENCHMARK.json: the metrics the ledger promises, with
// the bound by which each end-to-end metric may get worse.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// quartiles returns the first quartile, median and third quartile of v
// by the method of Python's statistics.quantiles(v, n=4) — the
// "exclusive" rule, positions at (n+1)·i/4 — which is what the driver
// uses to accept or reject the ledger. v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		pos := float64((n+1)*i) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// worse reports by what share of a the value b is worse than a, given
// the metric's direction; negative when b is better.
func worse(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeatSets runs n untraced sets of every workload, set i under seed
// seed+i, and prints for each end-to-end metric × workload the
// median, quartiles and relative spread (interquartile range over
// median) against the metric's bound. It fails when a spread, or the
// disagreement between the medians of the first and second half of
// the sets, exceeds the bound: the evidence that the bounds hold on
// this host.
func (e *env) repeatSets(ctx context.Context, decl *declaration, n int, seed int64, secs float64) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 sets, got %d", n)
	}
	values := make(map[string]map[string][]float64) // workload → metric → one value per set
	failed := 0
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			rep, _, err := e.runOne(ctx, w, seed+int64(i), secs, false)
			if err != nil {
				return err
			}
			failed += rep.Result.Failed
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for name, m := range rep.Result.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
		}
	}
	bad := spreadTable(os.Stdout, decl, values)
	if failed > 0 {
		return fmt.Errorf("%d operations failed across the sets", failed)
	}
	if bad > 0 {
		return fmt.Errorf("%d metric × workload pairs disagree beyond their bound", bad)
	}
	return nil
}

// spreadTable prints the table of repeatSets and returns how many
// rows are beyond their bound.
func spreadTable(out io.Writer, decl *declaration, values map[string]map[string][]float64) int {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tq1\tmedian\tq3\tspread\thalves\tbound\t")
	bad := 0
	for _, w := range workloads {
		for _, dm := range decl.EndToEnd {
			v := values[w.name][dm.Name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			// Two sets of runs of the same code must agree: the median
			// of the later half against the earlier half.
			h := len(v) / 2
			drift := worse(dm.Better, median(v[:h]), median(v[len(v)-h:]))
			verdict := ""
			// setup_s is held to the drift rule only, as by the driver.
			if (spread > dm.Bound && dm.Name != "setup_s") || drift > dm.Bound {
				verdict = "BEYOND"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.3f\t%+.3f\t%.2f\t%s\n",
				w.name, dm.Name, dm.Unit, q1, q2, q3, spread, drift, dm.Bound, verdict)
		}
	}
	tw.Flush()
	return bad
}

// printTable prints the reports of a full suite, one column per
// workload: every declared metric by name with its unit, then the notes
// of the untraced runs (their names end in their units), which are
// reported but not gated.
func printTable(out io.Writer, decl *declaration, reps []*runReport) {
	cell := make(map[string]map[string]float64) // metric or note → workload → value
	set := func(name, workload string, v float64) {
		if cell[name] == nil {
			cell[name] = make(map[string]float64)
		}
		cell[name][workload] = v
	}
	var notes []string
	for _, r := range reps {
		for name, m := range r.Result.Metrics {
			set(name, r.Workload, m.Value)
		}
		for name, v := range r.Notes {
			if cell[name] == nil {
				notes = append(notes, name)
			}
			set(name, r.Workload, v)
		}
	}
	sort.Strings(notes)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, w := range workloads {
		fmt.Fprintf(tw, "%s\t", w.name)
	}
	fmt.Fprintln(tw)
	row := func(name, unit string) {
		fmt.Fprintf(tw, "%s\t%s\t", name, unit)
		for _, w := range workloads {
			if v, ok := cell[name][w.name]; ok {
				fmt.Fprintf(tw, "%.5g\t", v)
			} else {
				fmt.Fprint(tw, "-\t")
			}
		}
		fmt.Fprintln(tw)
	}
	for _, dm := range decl.EndToEnd {
		row(dm.Name, dm.Unit)
	}
	for _, dm := range decl.PerLayer {
		row(dm.Name, dm.Unit)
	}
	for _, name := range notes {
		row(name, "note")
	}
	tw.Flush()
}
