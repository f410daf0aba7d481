package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb strings.Builder
	err = run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestListPrintsEveryExperiment(t *testing.T) {
	out, _, err := runCmd(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table2", "fig4", "fig12", "ablation-search"} {
		if !strings.Contains(out, id) {
			t.Fatalf("-list output missing %q:\n%s", id, out)
		}
	}
}

func TestUnknownExperimentErrors(t *testing.T) {
	_, _, err := runCmd(t, "-experiment", "fig99")
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("want error naming fig99, got %v", err)
	}
}

func TestNoActionErrors(t *testing.T) {
	_, stderr, err := runCmd(t)
	if err == nil {
		t.Fatal("no action did not error")
	}
	if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "-experiment") {
		t.Fatalf("usage not printed to stderr:\n%s", stderr)
	}
}

func TestBadFlagErrors(t *testing.T) {
	_, _, err := runCmd(t, "-no-such-flag")
	if err == nil {
		t.Fatal("undefined flag accepted")
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	_, stderr, err := runCmd(t, "-h")
	if err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	if !strings.Contains(stderr, "Usage") {
		t.Fatalf("-h did not print usage:\n%s", stderr)
	}
}

func TestTable2Runs(t *testing.T) {
	out, _, err := runCmd(t, "-experiment", "table2", "-quick", "-parallel", "4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "number of peers\t30") {
		t.Fatalf("quick table2 missing peer count:\n%s", out)
	}
	seq, _, err := runCmd(t, "-experiment", "table2", "-quick", "-parallel", "1")
	if err != nil {
		t.Fatal(err)
	}
	if out != seq {
		t.Fatalf("table2 diverged across -parallel:\n%s\nvs\n%s", out, seq)
	}
}

// TestParallelMatchesSequential is the CLI-level determinism contract:
// -parallel changes wall time only, never bytes.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick experiment skipped in -short; table2 path covered above")
	}
	exp := "ablation-search" // the smallest grid that still fans out
	seq, _, err := runCmd(t, "-experiment", exp, "-quick", "-parallel", "1")
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := runCmd(t, "-experiment", exp, "-quick", "-parallel", "4")
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Fatalf("output diverged between -parallel 1 and -parallel 4:\n%s\nvs\n%s", seq, par)
	}
	if !strings.Contains(seq, "# Ablation: search budget") {
		t.Fatalf("unexpected output:\n%s", seq)
	}
}

func TestVerboseEmitsProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick experiment skipped in -short")
	}
	_, stderr, err := runCmd(t, "-experiment", "ablation-search", "-quick", "-v")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "ablation-search") {
		t.Fatalf("no progress lines on stderr:\n%s", stderr)
	}
}

// traceFile writes a minimal valid version-1 trace to a temp file: three
// peers, one held object, two requests inside a short session window.
func traceFile(t *testing.T) string {
	t.Helper()
	lines := []string{
		`{"kind":"header","version":1,"scenario":"test","nodes":3,"objects":2,"horizon":100}`,
		`{"kind":"hold","t":0,"peer":1,"obj":1}`,
		`{"kind":"request","t":5,"peer":2,"obj":1}`,
		`{"kind":"request","t":9,"peer":3,"obj":1}`,
	}
	path := filepath.Join(t.TempDir(), "test.trace")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWorkloadFlagRunsBuiltin: -workload with a builtin name produces the
// open-loop metric table, byte-identical across -parallel.
func TestWorkloadFlagRunsBuiltin(t *testing.T) {
	seq, _, err := runCmd(t, "-workload", "flash", "-quick", "-replicas", "2", "-parallel", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seq, "completed downloads") {
		t.Fatalf("workload TSV missing completed-downloads series:\n%s", seq)
	}
	par, _, err := runCmd(t, "-workload", "flash", "-quick", "-replicas", "2", "-parallel", "8")
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Fatalf("-workload output diverged across -parallel:\n%s\nvs\n%s", seq, par)
	}
}

// TestTraceFlagReplaysFile: -trace replays a recorded file and labels the
// table with the trace's scenario and event count.
func TestTraceFlagReplaysFile(t *testing.T) {
	out, _, err := runCmd(t, "-trace", traceFile(t), "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "replay test") || !strings.Contains(out, "completed downloads") {
		t.Fatalf("replay TSV unexpected:\n%s", out)
	}
}

// TestWorkloadTraceMutuallyExclusive: the two demand sources cannot be
// combined in one invocation.
func TestWorkloadTraceMutuallyExclusive(t *testing.T) {
	_, _, err := runCmd(t, "-workload", "flash", "-trace", "x.trace")
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("want mutual-exclusion error, got %v", err)
	}
}

// TestUnknownWorkloadNameErrors: neither a file nor a builtin.
func TestUnknownWorkloadNameErrors(t *testing.T) {
	_, _, err := runCmd(t, "-workload", "no-such-spec")
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestMissingTraceFileErrors surfaces the open error for a bad -trace path.
func TestMissingTraceFileErrors(t *testing.T) {
	_, _, err := runCmd(t, "-trace", filepath.Join(t.TempDir(), "absent.trace"))
	if err == nil {
		t.Fatal("missing trace file accepted")
	}
}

// TestCPUProfileLeavesStdoutAlone: -cpuprofile writes a profile beside the
// run and changes nothing the run prints; a path that cannot be created is an
// error before anything runs.
func TestCPUProfileLeavesStdoutAlone(t *testing.T) {
	args := []string{"-experiment", "ablation-search", "-quick", "-parallel", "1"}
	plain, _, err := runCmd(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	profiled, _, err := runCmd(t, append(args, "-cpuprofile", prof)...)
	if err != nil {
		t.Fatal(err)
	}
	if profiled != plain {
		t.Fatalf("-cpuprofile changed stdout:\n%s\nvs\n%s", profiled, plain)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("no profile written: %v", err)
	}
	out, _, err := runCmd(t, append(args, "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.prof"))...)
	if err == nil || !strings.Contains(err.Error(), "-cpuprofile") || out != "" {
		t.Fatalf("uncreatable profile path: err=%v stdout=%q", err, out)
	}
}
