package swarm

import (
	"slices"
	"testing"
	"time"

	"barter/internal/core"
)

// TestFaultScheduleDeterministic pins that a run's fault schedule is a
// function of (Config, seed) alone: compiled twice without starting a node,
// churn's victims and medfail's shard kills come out identical; churn's
// victims move with the seed; and they are the run RNG's next draws once the
// world is built — the victims churn has always drawn for its world.
func TestFaultScheduleDeterministic(t *testing.T) {
	build := func(cfg Config) *swarmRun {
		t.Helper()
		s, err := newRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	victims := func(cfg Config) []core.PeerID {
		var out []core.PeerID
		for i, f := range build(cfg).schedule() {
			if f.peer == nil || f.at != time.Duration(i)*churnInterval {
				t.Fatalf("fault %d is not a churn restart at %v", i, time.Duration(i)*churnInterval)
			}
			out = append(out, f.peer.id)
		}
		return out
	}

	churn := Config{Scenario: Churn, Nodes: 100, Quick: true, Seed: 13}
	a, b := victims(churn), victims(churn)
	if len(a) != 60 {
		t.Fatalf("quick churn scheduled %d restarts, want 60", len(a))
	}
	if !slices.Equal(a, b) {
		t.Fatalf("same seed, different victims:\n%v\n%v", a, b)
	}
	if pinned := []core.PeerID{27, 62, 87, 40, 43, 89, 31, 49, 53, 71, 11, 76}; !slices.Equal(a[:len(pinned)], pinned) {
		t.Fatalf("victims %v, want the pinned prefix %v", a[:len(pinned)], pinned)
	}
	s := build(churn)
	for i, id := range a {
		if want := s.peers[s.rng.Intn(len(s.peers))].id; id != want {
			t.Fatalf("victim %d is peer %d, the RNG's next draw after the world is %d", i, id, want)
		}
	}
	churn.Seed = 14
	if c := victims(churn); slices.Equal(a, c) {
		t.Fatalf("seeds 13 and 14 drew the same victims %v", a)
	}

	medfail := Config{Scenario: Medfail, Nodes: 48, Quick: true, Seed: 5}
	for run := 0; run < 2; run++ {
		var shards []int
		for i, f := range build(medfail).schedule() {
			if f.peer != nil || f.at != time.Duration(i)*150*time.Millisecond {
				t.Fatalf("fault %d is not a shard kill at %v", i, time.Duration(i)*150*time.Millisecond)
			}
			shards = append(shards, f.shard)
		}
		if want := []int{0, 1, 2, 3, 0, 1}; !slices.Equal(shards, want) {
			t.Fatalf("build %d killed shards %v, want round-robin %v", run, shards, want)
		}
	}
}
