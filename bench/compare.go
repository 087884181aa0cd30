package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Verdicts, from least to most serious; a workload's row takes the most
// serious verdict of its metrics.
const (
	unchanged  = "unchanged"
	improved   = "improved"
	unresolved = "unresolved"
	worse      = "worse"
)

var severity = map[string]int{unchanged: 0, improved: 1, unresolved: 2, worse: 3}

// verdict compares one metric's runs at the base (a) and the change (b),
// and returns the relative change of the median. When either side's
// interquartile spread exceeds the bound, only runs that fully separate
// settle the question; otherwise the metric is unresolved, not unchanged.
func verdict(d metricDef, a, b []float64) (v string, change float64) {
	sa, sb := summarize(a), summarize(b)
	change = ratio(sb.Median-sa.Median, sa.Median)
	worsened := change // share by which b reads worse than a
	if d.Better == "higher" {
		worsened = -change
	}
	if max(sa.spread(), sb.spread()) > d.Bound {
		switch {
		case separated(d, b, a):
			return improved, change
		case separated(d, a, b) && worsened > d.Bound:
			return worse, change
		case separated(d, a, b):
			return unchanged, change
		}
		return unresolved, change
	}
	switch {
	case worsened > d.Bound:
		return worse, change
	case worsened < -d.Bound:
		return improved, change
	}
	return unchanged, change
}

// separated reports whether every run in good reads better than every run
// in bad.
func separated(d metricDef, good, bad []float64) bool {
	for _, g := range good {
		for _, x := range bad {
			if d.Better == "higher" && g <= x || d.Better != "higher" && g >= x {
				return false
			}
		}
	}
	return len(good) > 0 && len(bad) > 0
}

func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.json CHANGE.json")
		return 2
	}
	var a, b results
	for i, r := range []*results{&a, &b} {
		enc, err := os.ReadFile(args[i])
		if err == nil {
			err = json.Unmarshal(enc, r)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	if !a.Fingerprint.sameMachine(b.Fingerprint) || a.Seed != b.Seed {
		fmt.Fprintf(os.Stderr, "bench compare: refusing to compare runs from different machines or seeds:\n  %v seed=%d\n  %v seed=%d\n",
			a.Fingerprint, a.Seed, b.Fingerprint, b.Seed)
		return 2
	}
	fmt.Fprintf(stdout, "base   %s (%d runs)\nchange %s (%d runs)\n", a.Fingerprint.GitSHA, a.Runs, b.Fingerprint.GitSHA, b.Runs)
	if compareResults(a, b, stdout) {
		return 1
	}
	return 0
}

// compareResults prints one row per workload of the base and reports
// whether any row is worse. Each row gives every end-to-end metric's
// relative change of the median (+ means a larger value) and, when not
// unchanged, its verdict; a higher fail_ratio makes the row worse.
func compareResults(a, b results, w io.Writer) (anyWorse bool) {
	for _, wa := range a.Workloads {
		var wb *workloadResults
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-13s %-10s not measured in the change\n", wa.Name, unresolved)
			continue
		}
		row := unchanged
		var cells []string
		for _, ma := range wa.EndToEnd {
			var mb *metricResults
			for i := range wb.EndToEnd {
				if wb.EndToEnd[i].Name == ma.Name {
					mb = &wb.EndToEnd[i]
				}
			}
			if mb == nil {
				continue
			}
			v, change := verdict(ma.metricDef, ma.Samples, mb.Samples)
			cell := fmt.Sprintf("%s %+.1f%%", ma.Name, 100*change)
			if v != unchanged {
				cell += " " + v
			}
			cells = append(cells, cell)
			if severity[v] > severity[row] {
				row = v
			}
		}
		fa, fb := wa.failRatio(), wb.failRatio()
		cell := fmt.Sprintf("fail_ratio %.2f→%.2f", fa, fb)
		if fb > fa {
			row = worse
			cell += " " + worse
		}
		cells = append(cells, cell)
		fmt.Fprintf(w, "%-13s %-10s %s\n", wa.Name, row, strings.Join(cells, " · "))
		anyWorse = anyWorse || row == worse
	}
	return anyWorse
}
