package swarm

import (
	"fmt"
	"testing"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/strategy"
)

// TestWorldInvariants is the oracle over every scenario's world: built by
// newRun at each scenario's defaults, across populations and seeds, every
// world has exactly Nodes peers, wants only what it can fetch from an honest
// holder, and keeps its class and timing structure inside the row's terms.
func TestWorldInvariants(t *testing.T) {
	paired := map[Scenario]bool{Freerider: true, Adversary: true}
	for _, sc := range Scenarios() {
		for _, nodes := range []int{4, 5, 33, 80, 120} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/n%d/seed%d", sc, nodes, seed), func(t *testing.T) {
					s, err := newRun(Config{Scenario: sc, Nodes: nodes, Quick: true, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					checkWorld(t, s, paired[sc])
				})
			}
		}
	}
}

func checkWorld(t *testing.T, s *swarmRun, paired bool) {
	t.Helper()
	if len(s.peers) != s.cfg.Nodes {
		t.Fatalf("%d peers, want %d", len(s.peers), s.cfg.Nodes)
	}
	byID := make(map[core.PeerID]*peerState, len(s.peers))
	holds := make(map[core.PeerID]map[catalog.ObjectID]bool, len(s.peers))
	for _, p := range s.peers {
		if p.id < 1 || int(p.id) > s.cfg.Nodes || byID[p.id] != nil {
			t.Fatalf("peer id %d duplicated or outside [1, %d]", p.id, s.cfg.Nodes)
		}
		byID[p.id] = p
		holds[p.id] = make(map[catalog.ObjectID]bool, len(p.holds))
		for _, o := range p.holds {
			holds[p.id][o] = true
		}
	}
	sharing := 0
	for _, p := range s.peers {
		if p.strat.Name == strategy.LabelSharing {
			sharing++
		}
		if p.strat.Corrupt {
			if s.def.corruptFrac == 0 {
				t.Fatalf("peer %d is corrupt on a row with no corrupt class", p.id)
			}
			if len(p.holds) == 0 {
				t.Fatalf("corrupt peer %d holds nothing", p.id)
			}
		}
		wanted := make(map[catalog.ObjectID]bool, len(p.wants))
		for _, w := range p.wants {
			if holds[p.id][w.obj] || wanted[w.obj] {
				t.Fatalf("peer %d wants object %d it holds or already wants", p.id, w.obj)
			}
			wanted[w.obj] = true
			honest := false
			for _, pid := range w.providers {
				if q := byID[pid]; pid != p.id && q != nil && holds[pid][w.obj] && !q.strat.Corrupt {
					honest = true
				}
			}
			if !honest {
				t.Fatalf("peer %d wants object %d with no honest holder among providers %v", p.id, w.obj, w.providers)
			}
			if w.startAt < 0 || w.startAt > s.cfg.WaveWindow || (s.def.window == 0 && w.startAt != 0) {
				t.Fatalf("peer %d's want of %d starts at %v, outside the wave window %v", p.id, w.obj, w.startAt, s.cfg.WaveWindow)
			}
		}
		if p.departAt < 0 || p.departAt > s.cfg.WaveWindow || (s.def.window == 0 && p.departAt != 0) {
			t.Fatalf("peer %d departs at %v, outside the wave window %v", p.id, p.departAt, s.cfg.WaveWindow)
		}
	}
	if paired && (sharing < 2 || sharing%2 == 1) {
		t.Fatalf("paired world has %d sharers, want an even count of at least 2", sharing)
	}
}

// TestFracOnEveryScenario pins -frac to what the TSV prints as x: on every
// scenario, FreeriderFrac of the population is the non-sharing class.
func TestFracOnEveryScenario(t *testing.T) {
	const nodes, frac = 40, 0.25
	want := strategy.LegacyMix(frac).Counts(nodes)[0]
	for _, sc := range Scenarios() {
		s, err := newRun(Config{Scenario: sc, Nodes: nodes, Quick: true, Seed: 1, FreeriderFrac: frac})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		riders := 0
		for _, p := range s.peers {
			if p.strat.Name == strategy.LabelNonSharing {
				riders++
			}
		}
		if riders != want {
			t.Errorf("%s: %d non-sharing peers at frac %g over %d nodes, want %d", sc, riders, frac, nodes, want)
		}
	}
}
