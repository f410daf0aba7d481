package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the harness binary: the smoke
// test's parent re-executes os.Executable() with -slice, which lands here.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-slice" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json and the in-code
// registry identical, and both inside the contract's limits.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, registry %d", len(bj.Workloads), len(workloads))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := make(map[string]bool)
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		checkName("workload", w.Name)
		if got := bj.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, registry {%s %s}", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, registry %d", len(bj.EndToEnd), len(endToEnd))
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	hasSetup := false
	maxBound := 0.0
	for i, m := range endToEnd {
		checkName("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if got := bj.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, registry %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if endToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must carry the largest bound (%v), has %v", maxBound, endToEnd[0].Bound)
	}

	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, registry %d", len(bj.PerLayer), len(perLayer))
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for i, m := range perLayer {
		checkName("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if got := bj.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, registry %+v", i, got, m)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
}

// TestSmoke runs the whole harness on the quick world: one round of every
// workload plus the traced round. It checks the plumbing — every workload
// and metric named in the registry comes out, operations ran, none failed,
// the traces were written — not the numbers.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	ok, err := runBenchmark(runOpts{seed: 7, trace: -1, smoke: true, outDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("the correctness gate failed")
	}
	rep, err := loadReport(filepath.Join(out, "latest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("report has %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for i, w := range rep.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].Name)
		}
		if w.Ops <= 0 || w.Failed != 0 {
			t.Errorf("%s: ops %d failed %d (%v)", w.Name, w.Ops, w.Failed, w.Notes)
		}
		if len(w.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(w.EndToEnd), len(endToEnd))
		}
		for _, m := range endToEnd {
			s, ok := w.EndToEnd[m.Name]
			if !ok || s.N != 1 || !(s.Median > 0) {
				t.Errorf("%s %s = %+v, want one positive sample", w.Name, m.Name, s)
			}
		}
		if len(w.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(w.PerLayer), len(perLayer))
		}
		for _, m := range perLayer {
			if _, ok := w.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, m.Name)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	// The workloads must exercise the layers they claim to.
	layer := func(workload, metric string) float64 {
		for _, w := range rep.Workloads {
			if w.Name == workload {
				return w.PerLayer[metric].Value
			}
		}
		return 0
	}
	for _, c := range []struct {
		workload, metric string
		positive         bool
	}{
		{wlRings, "core.searches", true},
		{wlNoExchange, "core.searches", false},
		{wlNoExchange, "sim.events", true},
		{wlCredit, "sim.flips", true},
		{wlPlainTCP, "transport.block_msgs", true},
		{wlPlainTCP, "node.med_verifies", false},
		{wlMediated, "node.med_verifies", true},
		{wlMedAudit, "mediator.flags", true},
		{wlMedAudit, "mediator.honest_flagged", false},
		{wlMedAudit, "transport.block_msgs", false},
	} {
		if got := layer(c.workload, c.metric); (got > 0) != c.positive {
			t.Errorf("%s %s = %v, want positive: %v", c.workload, c.metric, got, c.positive)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(out, "wal-*")); len(files) != 0 {
		t.Errorf("temporary WAL directories left behind: %v", files)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// With four samples the 90th percentile is the slowest one.
	if got := percentile([]float64{5, 9, 1, 7}, 90); got != 9 {
		t.Errorf("percentile of four = %v, want 9", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

// TestBodyMakespan: stalls in the slowest tenth of the ops must not move the
// gated makespan, and with no tail it equals the true closed-loop wall.
func TestBodyMakespan(t *testing.T) {
	flat := make([]float64, 100)
	stalled := make([]float64, 100)
	for i := range flat {
		flat[i], stalled[i] = 1, 1
		if i%10 == 3 {
			stalled[i] = 1000 // ten ops wait a second each
		}
	}
	const want = 100 * 1.0 / 2 / 1e3 // 100 ops of 1 ms over 2 clients
	if got := bodyMakespan(flat, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("flat: %v s, want %v", got, want)
	}
	if got := bodyMakespan(stalled, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("stalled: %v s, want %v", got, want)
	}
	if got := bodyMakespan(nil, 2); got != 0 {
		t.Errorf("no ops: %v", got)
	}
	// Ten ops: the body is all but the slowest one.
	if got := bodyMakespan([]float64{9, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 1); math.Abs(got-10*1.0/1e3) > 1e-12 {
		t.Errorf("ten ops: %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the spread the acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{1.2, 1.1, 1.5, 1.15, 1.9, 1.12, 1.3, 1.18, 1.22, 1.6}, 1.1425, 1.525},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want 1 (5.5 / 5.5)", got)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{1.0, 1.6, 0.7, 1.3, 0.9}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   verdict
	}{
		{"same", steady, steady, "lower", verdictOK},
		{"within bound", steady, shift(steady, 1.05), "lower", verdictOK},
		{"slower beyond bound", steady, shift(steady, 1.2), "lower", verdictRegressed},
		{"faster", steady, shift(steady, 0.5), "lower", verdictOK},
		{"higher is better and it fell", steady, shift(steady, 0.8), "higher", verdictRegressed},
		{"higher is better and it rose", steady, shift(steady, 1.5), "higher", verdictOK},
		{"noise wider than the bound", noisy, noisy, "lower", verdictUnresolved},
		{"noisy but every round better", noisy, shift(noisy, 0.3), "lower", verdictOK},
	} {
		if _, got := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if worse, _ := judge(steady, shift(steady, 1.2), "lower", 0.10); math.Abs(worse-0.2) > 1e-9 {
		t.Errorf("worse = %v, want 0.2", worse)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall []float64, failed int) string {
		lo, hi := minMax(wall)
		rep := report{Correct: failed == 0, Workloads: []workloadReport{{
			Name: wlPlainTCP, Ops: 10, Failed: failed,
			EndToEnd: map[string]metricStats{"wall_s": {Unit: "s", Better: "lower", Bound: 0.1, Median: median(wall), Min: lo, Max: hi, N: len(wall), Values: wall}},
		}}}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{1, 1.01, 0.99}, 0)
	same := write("b.json", []float64{1.02, 1, 1.01}, 0)
	slow := write("c.json", []float64{1.5, 1.51, 1.49}, 0)
	broken := write("d.json", []float64{1, 1.01, 0.99}, 3)

	var sb strings.Builder
	if regressed, err := compareFiles(&sb, base, same); err != nil || regressed {
		t.Errorf("A/A: regressed %v err %v\n%s", regressed, err, sb.String())
	}
	if !strings.Contains(sb.String(), "wall_s") || !strings.Contains(sb.String(), string(verdictOK)) {
		t.Errorf("A/A table lacks the wall_s row:\n%s", sb.String())
	}
	if regressed, err := compareFiles(&sb, base, slow); err != nil || !regressed {
		t.Errorf("slower run: regressed %v err %v", regressed, err)
	}
	if regressed, err := compareFiles(&sb, base, broken); err != nil || !regressed {
		t.Errorf("run with new failures: regressed %v err %v", regressed, err)
	}
	if _, err := compareFiles(&sb, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file must be an error")
	}
}

// TestSummarizeSelfTime checks self time = duration minus the union of the
// child intervals, with overlapping children and one that outlives its parent.
func TestSummarizeSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100e9},
		{ID: 2, Name: "send", Start: 10e9, End: 30e9, Parent: 1},
		{ID: 3, Name: "recv", Start: 20e9, End: 50e9, Parent: 1},  // overlaps send
		{ID: 4, Name: "recv", Start: 90e9, End: 120e9, Parent: 1}, // clipped at 100
		{ID: 5, Name: "open", Start: 5e9, End: 4e9},               // never closed: skipped
	}
	got := make(map[string]layerSummary)
	for _, ls := range summarize(spans) {
		got[ls.Name] = ls
	}
	if op := got["op"]; op.Count != 1 || op.TotalS != 100 || op.SelfS != 50 {
		t.Errorf("op = %+v, want total 100 self 50 (covered 10-50 and 90-100)", op)
	}
	if recv := got["recv"]; recv.Count != 2 || recv.TotalS != 60 || recv.SelfS != 60 {
		t.Errorf("recv = %+v, want count 2 total 60 self 60", recv)
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span must not be summarized")
	}
}
