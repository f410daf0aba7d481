package main

import (
	"strings"
	"testing"

	"barter/internal/experiment"
)

// TestPerfCountsAtAnyParallel: -perf sums the counts of the runs behind the
// report, so fig4 -quick at seed 1 prints the same 16 runs' events, block and
// heap split and search effort at -parallel 1 and 2.
func TestPerfCountsAtAnyParallel(t *testing.T) {
	for _, par := range []string{"1", "2"} {
		_, stderr, err := runCmd(t, "-experiment", "fig4", "-quick", "-perf", "-parallel", par)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"perf: 16 run(s) in ",
			"perf: events     1309061 (",
			"perf: eventq     43459 heap events, 1265602 blocks counted (96.7%)\n",
			"perf: searches   450175 (6078548 nodes visited, 20978074 want probes, 48928 rings started)\n",
			"perf: alloc      ",
		} {
			if !strings.Contains(stderr, want) {
				t.Fatalf("-parallel %s: report missing %q:\n%s", par, want, stderr)
			}
		}
	}
}

// TestPerfReport renders hand-made counts: each line carries its own.
func TestPerfReport(t *testing.T) {
	rep := startPerf().report(experiment.Counts{Runs: 1, Events: 42, Blocks: 21, HeapEvents: 21, Searches: 7, RingsStarted: 3})
	for _, want := range []string{"1 run(s)", "events     42", "eventq     21 heap events, 21 blocks counted (50.0%)", "searches   7", "3 rings started", "alloc"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestRate(t *testing.T) {
	if got := rate(100, 2); got != 50 {
		t.Fatalf("rate(100, 2) = %g", got)
	}
	if got := rate(100, 0); got != 0 {
		t.Fatalf("rate with zero wall = %g", got)
	}
}

func TestBytesHuman(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{512, "512 B"},
		{2 << 10, "2.00 KiB"},
		{3 << 20, "3.00 MiB"},
		{5 << 30, "5.00 GiB"},
	}
	for _, tc := range cases {
		if got := bytesHuman(tc.n); got != tc.want {
			t.Fatalf("bytesHuman(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}
