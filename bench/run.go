package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type runOpts struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	smoke    bool
	outDir   string
}

// envBlock records where the numbers were taken.
type envBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

// metricStats is one end-to-end metric of one workload: the median over the
// rounds is the reported value; the raw per-round values ride along.
type metricStats struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadReport struct {
	Name     string                 `json:"name"`
	Ops      int                    `json:"ops"`
	Failed   int                    `json:"failed"`
	Notes    []string               `json:"notes,omitempty"`
	EndToEnd map[string]metricStats `json:"end_to_end"`
	PerLayer map[string]layerValue  `json:"per_layer,omitempty"`
}

type report struct {
	Env       envBlock         `json:"env"`
	Seed      uint64           `json:"seed"`
	Smoke     bool             `json:"smoke,omitempty"`
	Correct   bool             `json:"correct"`
	Workloads []workloadReport `json:"workloads"`
}

// runBenchmark is the parent: it runs the selected workloads' slices in
// interleaved rounds, then the traced round, checks the outputs, prints the
// metrics and writes the result file. It reports whether every check passed.
func runBenchmark(o runOpts) (bool, error) {
	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workloadDef{w}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}

	untraced := make(map[string][]*sliceResult)
	tracedRes := make(map[string]*sliceResult)
	args := func(w workloadDef, round int, traced bool) sliceArgs {
		return sliceArgs{workload: w.Name, seed: o.seed, round: round, traced: traced, smoke: o.smoke, outDir: o.outDir}
	}

	// Untraced rounds. Every round runs each workload's slice once, in
	// workload order, so a workload's samples are spread over the whole
	// session instead of sitting in one contiguous window. With a time
	// budget the rounds continue until it is spent; a traced-only run keeps
	// half of it for the traced round.
	budget := time.Duration(o.seconds) * time.Second * time.Duration(len(selected))
	minRounds := 3
	if o.trace == 1 {
		budget /= 2
		minRounds = 1
	}
	begin := time.Now()
	done := func(round int) bool {
		switch {
		case o.smoke:
			return round >= 1
		case o.seconds == 0:
			return round >= defaultRounds
		default:
			return round >= minRounds && time.Since(begin) >= budget
		}
	}
	for round := 0; !done(round); round++ {
		for _, w := range selected {
			res, err := spawnSlice(exe, args(w, round, false))
			if err != nil {
				return false, err
			}
			untraced[w.Name] = append(untraced[w.Name], res)
		}
	}
	var probes map[string]float64
	if o.trace != 0 {
		if probes, err = spawnProbes(exe, o.seed, o.smoke); err != nil {
			return false, err
		}
		for _, w := range selected {
			res, err := spawnSlice(exe, args(w, -1, true))
			if err != nil {
				return false, err
			}
			tracedRes[w.Name] = res
		}
	}

	rep := report{Env: environment(), Seed: o.seed, Smoke: o.smoke, Correct: true}
	for _, w := range selected {
		wr := buildWorkloadReport(w, untraced[w.Name], tracedRes[w.Name], probes)
		if wr.Failed > 0 {
			rep.Correct = false
		}
		rep.Workloads = append(rep.Workloads, wr)
	}

	printReport(&rep, o)
	name := "latest.json"
	if o.workload != "" {
		name = "latest-" + o.workload + ".json"
	}
	b, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, name), b, 0o644); err != nil {
		return false, err
	}
	fmt.Println(lastLine(&rep, o))
	return rep.Correct, nil
}

// buildWorkloadReport folds one workload's slices into its report: medians
// over the untraced rounds for the end-to-end metrics, the traced slice and
// the probes for the per-layer ones, and the cross-round part of the gate.
func buildWorkloadReport(w workloadDef, rounds []*sliceResult, traced *sliceResult, probes map[string]float64) workloadReport {
	wr := workloadReport{Name: w.Name, EndToEnd: make(map[string]metricStats)}
	all := rounds
	if traced != nil {
		all = append(append([]*sliceResult(nil), rounds...), traced)
	}
	for _, s := range all {
		wr.Ops += s.Ops
		wr.Failed += s.Failed
		wr.Notes = append(wr.Notes, s.Notes...)
	}
	// A simulator slice is a pure function of its seed: any count that
	// differs between two rounds is a determinism bug, not noise.
	if w.Kind == kindSim {
		for _, s := range all[1:] {
			if diff := countsDiffer(all[0].Counts, s.Counts); diff != "" {
				wr.Failed++
				wr.Notes = append(wr.Notes, fmt.Sprintf("round %d is not a replay of round %d: %s", s.Round, all[0].Round, diff))
			}
		}
	}
	if len(wr.Notes) > maxNotes {
		wr.Notes = wr.Notes[:maxNotes]
	}

	pick := map[string]func(*sliceResult) float64{
		"setup_s":     func(s *sliceResult) float64 { return s.SetupS },
		"wall_s":      func(s *sliceResult) float64 { return s.WallS },
		"peak_rss_mb": func(s *sliceResult) float64 { return s.PeakRSSMB },
		"op_ms_p50":   func(s *sliceResult) float64 { return s.OpMsP50 },
		"op_ms_p90":   func(s *sliceResult) float64 { return s.OpMsP90 },
	}
	column := func(f func(*sliceResult) float64) []float64 {
		vals := make([]float64, len(rounds))
		for i, s := range rounds {
			vals[i] = f(s)
		}
		return vals
	}
	for _, m := range endToEnd {
		vals := column(pick[m.Name])
		lo, hi := minMax(vals)
		wr.EndToEnd[m.Name] = metricStats{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Median: median(vals), Min: lo, Max: hi, N: len(vals), Values: vals}
	}

	if traced != nil {
		wr.PerLayer = make(map[string]layerValue, len(perLayer))
		l := traced.Layers
		for k, v := range probes {
			l[k] = v
		}
		deriveShares(l, traced)
		l["harness.cpu_user_s"] = median(column(func(s *sliceResult) float64 { return s.CPUUserS }))
		l["harness.cpu_sys_s"] = median(column(func(s *sliceResult) float64 { return s.CPUSysS }))
		l["harness.gc_cycles"] = median(column(func(s *sliceResult) float64 { return s.GCCycles }))
		l["harness.alloc_mb"] = median(column(func(s *sliceResult) float64 { return s.AllocMB }))
		l["harness.wall_raw_s"] = median(column(func(s *sliceResult) float64 { return s.WallRawS }))
		if base := l["harness.wall_raw_s"]; base > 0 {
			l["harness.trace_overhead"] = traced.WallRawS / base
		}
		for _, m := range perLayer {
			wr.PerLayer[m.Name] = layerValue{Value: l[m.Name], Unit: m.Unit}
		}
	}
	return wr
}

// countsDiffer names the first count that differs between two slices.
func countsDiffer(a, b map[string]float64) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s %v vs %v", k, a[k], b[k])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d counts vs %d", len(a), len(b))
	}
	return ""
}

// printReport writes one line per metric: workload metric value unit.
func printReport(rep *report, o runOpts) {
	for _, w := range rep.Workloads {
		if o.trace != 1 {
			for _, m := range endToEnd {
				s := w.EndToEnd[m.Name]
				fmt.Printf("%s %s %.6g %s  (n=%d min %.6g max %.6g)\n", w.Name, m.Name, s.Median, s.Unit, s.N, s.Min, s.Max)
			}
		}
		fmt.Printf("%s ops %d count\n%s failed %d count\n", w.Name, w.Ops, w.Name, w.Failed)
		for _, m := range perLayer {
			if v, ok := w.PerLayer[m.Name]; ok {
				fmt.Printf("%s %s %.6g %s\n", w.Name, m.Name, v.Value, v.Unit)
			}
		}
		for _, n := range w.Notes {
			fmt.Printf("# %s FAILED: %s\n", w.Name, n)
		}
	}
}

// lastLine is the machine-readable result: one JSON object with the keys
// correct, attempted, failed and metrics. For a single workload the metric
// names are bare; a run over several prefixes them with the workload.
func lastLine(rep *report, o runOpts) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: rep.Correct, Metrics: make(map[string]mv)}
	for _, w := range rep.Workloads {
		out.Attempted += w.Ops
		out.Failed += w.Failed
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = w.Name + "/"
		}
		if o.trace != 1 {
			for _, m := range endToEnd {
				out.Metrics[prefix+m.Name] = mv{w.EndToEnd[m.Name].Median, m.Unit}
			}
		}
		if o.trace != 0 {
			for _, m := range perLayer {
				out.Metrics[prefix+m.Name] = mv{w.PerLayer[m.Name].Value, m.Unit}
			}
		}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}

func environment() envBlock {
	return envBlock{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients(),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Commit:     gitCommit(),
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

// gitCommit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func gitCommit() string {
	head := firstLine(".git/HEAD")
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return firstLine(filepath.Join(".git", ref))
	}
	return head
}
