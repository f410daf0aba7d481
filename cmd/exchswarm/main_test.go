package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"barter/internal/workload"
)

func TestListScenarios(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flashcrowd", "mixed", "freerider", "cheater", "churn", "adversary", "medfail"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestNoScenarioErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(nil, &out, &errOut); err == nil {
		t.Fatal("no arguments accepted")
	}
}

func TestBadFlagErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-bogus"}, &out, &errOut); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestUnknownScenarioErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-scenario", "nope", "-nodes", "10"}, &out, &errOut); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// classColumn extracts the per-peer class sequence from a -peers TSV dump:
// the world-structure fingerprint that -seed must make reproducible.
func classColumn(t *testing.T, out string) []string {
	t.Helper()
	var classes []string
	inPeers := false
	for _, line := range strings.Split(out, "\n") {
		cols := strings.Split(line, "\t")
		if strings.HasPrefix(line, "peer\tclass\t") {
			inPeers = true
			continue
		}
		if inPeers && len(cols) > 2 {
			classes = append(classes, cols[1])
		}
	}
	if len(classes) == 0 {
		t.Fatalf("no peer rows in output:\n%s", out)
	}
	return classes
}

// TestSeedReproducesWorld is the -seed smoke test: the same seed must build
// the same world (per-peer class assignment), and a different seed a
// different one — the live counterpart of exchsim's determinism contract.
// Wall-clock timings still vary; only structure is pinned.
func TestSeedReproducesWorld(t *testing.T) {
	runSeed := func(seed string) []string {
		var out, errOut strings.Builder
		args := []string{"-scenario", "mixed", "-nodes", "24", "-frac", "0.4", "-quick", "-peers", "-seed", seed}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("run -seed %s: %v\nstderr:\n%s", seed, err, errOut.String())
		}
		return classColumn(t, out.String())
	}
	a, b := runSeed("3"), runSeed("3")
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("same seed built different worlds:\n%v\n%v", a, b)
	}
	c := runSeed("4")
	if strings.Join(a, ",") == strings.Join(c, ",") {
		t.Fatalf("different seeds built identical worlds:\n%v", a)
	}
}

// TestAdversaryFlagsReachScenario: the adversary fractions plumb through to
// the world builder and every requested class shows up in the peer rows.
func TestAdversaryFlagsReachScenario(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-scenario", "adversary", "-nodes", "24", "-quick", "-peers", "-seed", "11",
		"-adaptive", "0.25", "-whitewash", "0.1", "-partial", "0.25"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errOut.String())
	}
	got := out.String()
	for _, class := range []string{"adaptive", "whitewasher", "partial", "sharing"} {
		if !strings.Contains(got, class) {
			t.Fatalf("output missing %s peers:\n%s", class, got)
		}
	}
}

// TestQuickFlashCrowd drives a real (small) swarm end to end through the
// CLI surface: TSV on stdout, progress on stderr, per-peer rows on demand.
func TestQuickFlashCrowd(t *testing.T) {
	var out, errOut strings.Builder
	err := run([]string{"-scenario", "flashcrowd", "-nodes", "30", "-quick", "-peers", "-v"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "live/sharing") {
		t.Fatalf("aggregate TSV missing sharing series:\n%s", got)
	}
	if !strings.Contains(got, "peer\tclass\t") {
		t.Fatalf("-peers rows missing:\n%s", got)
	}
	if !strings.Contains(errOut.String(), "finished in") {
		t.Fatalf("-v progress missing:\n%s", errOut.String())
	}
}

// TestMedfailThroughCLI drives the mediator-failover scenario end to end
// through the CLI surface: a sharded tier, kills mid-run, and the mediator
// comment line in the TSV.
func TestMedfailThroughCLI(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-scenario", "medfail", "-nodes", "24", "-quick",
		"-mediators", "3", "-medkills", "2", "-seed", "7"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "shards=3") {
		t.Fatalf("TSV missing mediator tier line:\n%s", got)
	}
	if !strings.Contains(got, "flagged=") {
		t.Fatalf("TSV missing flagged counter:\n%s", got)
	}
}

// TestWaveRecordsReplayableTrace drives the wave scenario through the CLI:
// a builtin workload spec, a -record file, and the trace comment in the
// TSV. The recorded file must parse as a version-1 JSON-lines trace.
func TestWaveRecordsReplayableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wave.trace")
	var out, errOut strings.Builder
	args := []string{"-scenario", "wave", "-nodes", "24", "-quick", "-seed", "5",
		"-workload", "flash", "-record", path}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "trace: events=") {
		t.Fatalf("TSV missing trace comment:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := workload.ReadTrace(f)
	if err != nil {
		t.Fatalf("recorded file is not a valid trace: %v", err)
	}
	if tr.Header.Scenario != "wave" || len(tr.Events) == 0 {
		t.Fatalf("unexpected trace: scenario %q with %d events", tr.Header.Scenario, len(tr.Events))
	}
}

// TestWorkloadFlagRejectedOffWave: a workload spec only drives the wave
// scenario; other scenarios must refuse it loudly rather than ignore it.
func TestWorkloadFlagRejectedOffWave(t *testing.T) {
	var out, errOut strings.Builder
	err := run([]string{"-scenario", "mixed", "-nodes", "10", "-quick", "-workload", "flash"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "wave") {
		t.Fatalf("want wave-only error, got %v", err)
	}
}

// TestUnknownWorkloadErrors: a workload argument that is neither a builtin
// name nor a spec file fails before any nodes launch.
func TestUnknownWorkloadErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-scenario", "wave", "-nodes", "10", "-quick", "-workload", "nope"}, &out, &errOut); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
