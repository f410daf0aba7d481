package sim

import (
	"testing"

	"barter/internal/core"
)

// The tests in this file exercise the incremental holders/wanters indexes
// and the engine's slice-snapshot discipline under churn: repeated
// disconnect/rejoin cycles injected into a loaded run, with the full
// invariant suite (including both index directions) checked after every
// injection and periodically between events.

// TestChurnCyclesKeepIndexesConsistent drives repeated disconnect/rejoin
// waves through a loaded simulation and verifies after each wave that the
// holders and wanters indexes agree exactly with per-peer state.
func TestChurnCyclesKeepIndexesConsistent(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 11
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Load the system first so churn hits peers with live transfers, queued
	// requests, and pending downloads.
	s.RunUntil(4_000)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("pre-churn: %v", err)
	}

	n := core.PeerID(int32(s.NumPeers()))
	for cycle := 0; cycle < 8; cycle++ {
		// Take down a rotating third of the population...
		for id := core.PeerID(0); id < n; id++ {
			if int(id)%3 == cycle%3 {
				s.DisconnectPeer(id)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d after disconnects: %v", cycle, err)
		}
		// ...run with the hole in the population...
		s.RunUntil(s.Now() + 500)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d mid-outage: %v", cycle, err)
		}
		// ...and bring everyone back.
		for id := core.PeerID(0); id < n; id++ {
			s.RejoinPeer(id)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d after rejoins: %v", cycle, err)
		}
		s.RunUntil(s.Now() + 500)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("post-churn: %v", err)
	}
}

// TestRepeatedDisconnectRejoinSamePeer hammers one peer with
// disconnect/rejoin flapping while the rest of the system keeps running;
// each flap must leave the indexes consistent, and double disconnects or
// rejoins must be no-ops.
func TestRepeatedDisconnectRejoinSamePeer(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 12
	if testing.Short() {
		cfg.Duration = 12_000
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(3_000)
	victim := core.PeerID(0)
	for i := 0; !s.peers[victim].sharing; i++ {
		victim = core.PeerID(int32(i))
	}
	for flap := 0; flap < 30; flap++ {
		s.DisconnectPeer(victim)
		s.DisconnectPeer(victim) // must be a no-op
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("flap %d offline: %v", flap, err)
		}
		s.RunUntil(s.Now() + 97)
		s.RejoinPeer(victim)
		s.RejoinPeer(victim) // must be a no-op
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("flap %d online: %v", flap, err)
		}
		s.RunUntil(s.Now() + 61)
	}
}

// TestChurnPreservesDeterminism pins the determinism contract under churn:
// the same seed with the same injection schedule yields identical results.
func TestChurnPreservesDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := testConfig()
		cfg.Seed = 13
		cfg.Duration = 15_000
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []float64{2_000, 5_000, 8_000} {
			s.RunUntil(at)
			s.DisconnectPeer(core.PeerID(int(at/1000) % s.NumPeers()))
			s.RunUntil(at + 700)
			s.DisconnectPeer(core.PeerID(int(at/500) % s.NumPeers()))
			s.RejoinPeer(core.PeerID(int(at/1000) % s.NumPeers()))
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Events != b.Events {
		t.Fatalf("event counts diverged under churn: %d vs %d", a.Events, b.Events)
	}
	if completed(a, true) != completed(b, true) || completed(a, false) != completed(b, false) {
		t.Fatalf("completion counts diverged under churn: %+v vs %+v", a, b)
	}
	if a.RingSearches != b.RingSearches || a.SearchNodesVisited != b.SearchNodesVisited {
		t.Fatalf("search effort diverged under churn: %d/%d vs %d/%d",
			a.RingSearches, a.SearchNodesVisited, b.RingSearches, b.SearchNodesVisited)
	}
}

// TestInvariantsWithChurnThroughoutRun steps a churn-heavy run event by
// event, checking the full invariant suite at a fixed cadence — the tightest
// net for mutation-during-iteration bugs in the teardown paths
// (dissolveRing, completeDownload, DisconnectPeer, evictFrom), which fire
// most densely right after an injection.
func TestInvariantsWithChurnThroughoutRun(t *testing.T) {
	if testing.Short() {
		t.Skip("stepwise invariant sweep is slow; covered by the wave tests in -short")
	}
	cfg := testConfig()
	cfg.Seed = 14
	cfg.Duration = 9_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	nextChurn := 1_000.0
	churned := core.PeerID(0)
	for s.Step() {
		steps++
		if steps%64 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d (t=%.0f): %v", steps, s.Now(), err)
			}
		}
		if s.Now() >= nextChurn {
			s.RejoinPeer(churned)
			churned = core.PeerID(steps % s.NumPeers())
			s.DisconnectPeer(churned)
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("churn at t=%.0f: %v", s.Now(), err)
			}
			nextChurn += 750
		}
		if s.Now() >= cfg.Duration {
			break
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("final: %v", err)
	}
}
