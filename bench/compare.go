package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict is the outcome of comparing one (workload, metric) pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares a metric's per-round values in run A (the parent) and run B
// (the change). worse is how far B's median moved in the bad direction as a
// share of A's. The pair regressed when worse exceeds the bound. It is
// unresolved — neither unchanged nor regressed — when either side's own
// spread is wider than the bound, unless every B round reads better than
// every A round.
func judge(a, b []float64, better string, bound float64) (worse float64, v verdict) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
	}
	aLo, aHi := minMax(a)
	bLo, bHi := minMax(b)
	allBetter := bHi < aLo
	if better == "higher" {
		worse = -worse
		allBetter = bLo > aHi
	}
	switch {
	case worse > bound:
		return worse, verdictRegressed
	case (spread(a) > bound || spread(b) > bound) && !allBetter:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, for every (workload, end-to-end metric) pair present
// in both result files, the two medians, the relative difference, the bound
// and the verdict. It reports whether any pair regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	ra, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	rb, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	inB := make(map[string]workloadReport)
	for _, wl := range rb.Workloads {
		inB[wl.Name] = wl
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tworse by\tbound\tspread A\tspread B\tverdict")
	pairs := 0
	for _, wa := range ra.Workloads {
		wb, ok := inB[wa.Name]
		if !ok {
			continue
		}
		for _, m := range endToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			pairs++
			worse, v := judge(sa.Values, sb.Values, sa.Better, sa.Bound)
			if v == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wa.Name, m.Name, sa.Median, sa.Unit, sb.Median, sb.Unit, worse*100, sa.Bound*100,
				spread(sa.Values)*100, spread(sb.Values)*100, v)
		}
		if wb.Failed > wa.Failed {
			regressed = true
			fmt.Fprintf(tw, "%s\tfailed\t%d\t%d\t\t\t\t\t%s\n", wa.Name, wa.Failed, wb.Failed, verdictRegressed)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if pairs == 0 {
		return false, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	return regressed, nil
}
