package swarm

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"barter/internal/testutil"
	"barter/internal/workload"
)

// TestWaveScenario drives the temporal workload scenario end to end with a
// recorded trace: every scheduled download completes, and the trace that
// comes out parses, validates, and covers the run's holds and demand.
func TestWaveScenario(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 5)
	var buf bytes.Buffer
	res, err := Run(Config{Scenario: Wave, Nodes: 40, Quick: true, Seed: 9, Record: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("wave: %d of %d downloads failed\n%s", res.Failed, res.Wanted, res.PeersTSV())
	}
	if res.Wanted == 0 || res.Completed != res.Wanted {
		t.Fatalf("wave: completed %d of %d", res.Completed, res.Wanted)
	}
	if res.TraceEvents == 0 {
		t.Fatal("recorded run reported zero trace events")
	}
	if !strings.Contains(res.TSV(), "trace: events=") {
		t.Fatalf("TSV missing trace line:\n%s", res.TSV())
	}

	tr, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("recorded trace does not parse: %v", err)
	}
	if tr.Header.Scenario != string(Wave) || tr.Header.Nodes < 40 || tr.Header.Horizon <= 0 {
		t.Fatalf("trace header %+v", tr.Header)
	}
	holds, requests := 0, 0
	for _, ev := range tr.Events {
		switch ev.Kind {
		case workload.KindHold:
			holds++
		case workload.KindRequest:
			requests++
		}
	}
	if holds == 0 {
		t.Error("trace recorded no seed holdings")
	}
	if requests != res.Wanted {
		t.Errorf("trace recorded %d requests, run wanted %d", requests, res.Wanted)
	}
}

// TestWaveCohortDepartures runs a spec with an early-departing cohort and
// checks the session edges reach the trace: arrive events for the late
// cohort, depart events for the early one.
func TestWaveCohortDepartures(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 5)
	spec, _ := workload.Builtin("constant")
	spec.RequestsPerPeer = 2
	spec.Cohorts = []workload.Cohort{
		{Name: "early", Frac: 0.25, Arrive: 0, Depart: 0.5},
		{Name: "late", Frac: 0.25, Arrive: 0.3},
	}
	var buf bytes.Buffer
	res, err := Run(Config{Scenario: Wave, Nodes: 40, Quick: true, Seed: 4, Workload: spec, Record: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("wave cohorts: %d failures\n%s", res.Failed, res.PeersTSV())
	}
	tr, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	arrives, departs := 0, 0
	for _, ev := range tr.Events {
		switch ev.Kind {
		case workload.KindArrive:
			arrives++
		case workload.KindDepart:
			departs++
		}
	}
	if arrives == 0 {
		t.Error("late cohort recorded no arrive events")
	}
	if departs == 0 {
		t.Error("early cohort recorded no depart events")
	}
}

// TestWaveWantsDeterministic pins the structural determinism the replay
// story rests on: two runs with the same seed build identical want lists
// (objects and scheduled times), however the wall clock behaves.
func TestWaveWantsDeterministic(t *testing.T) {
	build := func() []string {
		s, err := newRun(Config{Scenario: Wave, Nodes: 40, Quick: true, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, p := range s.peers {
			for _, w := range p.wants {
				out = append(out, strings.Join([]string{
					strconv.Itoa(int(p.id)), strconv.Itoa(int(w.obj)), w.startAt.String(),
				}, "/"))
			}
		}
		return out
	}
	a, b := build(), build()
	if len(a) == 0 {
		t.Fatal("wave built no wants")
	}
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatal("wave want structure not deterministic")
	}
}

func TestWorkloadRejectedOffWave(t *testing.T) {
	spec, _ := workload.Builtin("flash")
	if _, err := Run(Config{Scenario: Mixed, Nodes: 10, Quick: true, Workload: spec}); err == nil {
		t.Fatal("Workload spec accepted on a non-wave scenario")
	}
}
