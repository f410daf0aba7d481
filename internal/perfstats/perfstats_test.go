package perfstats

import (
	"strings"
	"testing"
)

// The counters are process-global; each test scopes itself with Sub.

func TestAddRunAndCurrent(t *testing.T) {
	base := Current()
	AddRun(Snapshot{Runs: 1, Events: 100, Blocks: 90, HeapEvents: 10, RingSearches: 5, SearchNodesVisited: 50, SearchWantsChecked: 20, RingsStarted: 2})
	AddRun(Snapshot{Runs: 1, Events: 900, Blocks: 800, HeapEvents: 100, RingSearches: 5, SearchNodesVisited: 10, SearchWantsChecked: 30, RingsStarted: 1})
	got := Current().Sub(base)
	want := Snapshot{Runs: 2, Events: 1000, Blocks: 890, HeapEvents: 110, RingSearches: 10, SearchNodesVisited: 60, SearchWantsChecked: 50, RingsStarted: 3}
	if got != want {
		t.Fatalf("Current() = %+v, want %+v", got, want)
	}
}

// TestLiveCountersScopeWithSub: the counters published as they happen show in
// Current and subtract like the rest.
func TestLiveCountersScopeWithSub(t *testing.T) {
	start := Current()
	AddMedReplicated()
	base := Current()
	AddMedReplicated()
	AddMedReplDropped()
	if d := Current().Sub(base); d.MedReplicated != 1 || d.MedReplDropped != 1 || Current().Sub(start).MedReplicated != 2 {
		t.Fatalf("delta %+v of %+v", d, Current().Sub(start))
	}
}

func TestSub(t *testing.T) {
	a := Snapshot{Runs: 5, Events: 500, Blocks: 450, HeapEvents: 50, RingSearches: 50, SearchNodesVisited: 40, SearchWantsChecked: 30, RingsStarted: 20}
	b := Snapshot{Runs: 2, Events: 100, Blocks: 80, HeapEvents: 20, RingSearches: 10, SearchNodesVisited: 10, SearchWantsChecked: 10, RingsStarted: 5}
	got := a.Sub(b)
	want := Snapshot{Runs: 3, Events: 400, Blocks: 370, HeapEvents: 30, RingSearches: 40, SearchNodesVisited: 30, SearchWantsChecked: 20, RingsStarted: 15}
	if got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
}

// TestTimerScopesInterval: a timer started after some activity reports only
// what happened since.
func TestTimerScopesInterval(t *testing.T) {
	AddRun(Snapshot{Runs: 1, Events: 11111})
	timer := StartTimer()
	AddRun(Snapshot{Runs: 1, Events: 42, Blocks: 21, HeapEvents: 21, RingSearches: 7, RingsStarted: 3})
	rep := timer.Report()
	for _, want := range []string{"1 run(s)", "events     42", "eventq     21 heap events, 21 blocks counted (50.0%)", "searches   7", "3 rings started", "alloc"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	if strings.Contains(rep, "11111") {
		t.Fatalf("report leaked pre-timer events:\n%s", rep)
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
