package sim

import (
	"runtime"
	"testing"

	"barter/internal/core"
	"barter/internal/strategy"
	"barter/internal/workload"
)

// TestAdaptiveCheckSurvivesRecycling pins that an adaptive peer's patience
// check names its download by seq, not by pointer: peer 1's download of
// object 1 completes at t=20, its download is recycled for object 2 at
// t=35, and the first download's check fires at t=40 while the second is
// still pending. The first download was not starved, so the peer must not
// start contributing.
func TestAdaptiveCheckSurvivesRecycling(t *testing.T) {
	rec := workload.NewRecorder()
	rec.Hold(0, 1)
	rec.Hold(0, 2)
	rec.Request(10, 1, 1)
	rec.Request(35, 1, 2)
	cfg := DefaultConfig()
	cfg.Trace = rec.Trace(workload.Header{Nodes: 2, Objects: 2, ObjectKbits: 100, BlockKbits: 10, Horizon: 100})
	cfg.AdaptivePatience = 30
	cfg.WarmupFrac = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := strategy.AdaptiveFreerider()
	p := s.peers[1]
	p.strat, p.sharing = &adaptive, false

	s.RunUntil(11)
	first := p.pendingFor(1)
	if first == nil {
		t.Fatal("peer 1 has no download of object 1 at t=11")
	}
	s.RunUntil(36)
	if !p.has(1) || p.pendingFor(2) != first {
		t.Fatal("peer 1's download of object 1 did not complete and come back as its download of object 2")
	}
	s.RunUntil(41)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.sharing || p.pendingFor(2) == nil {
		t.Fatalf("t=41: sharing %v, object 2 pending %v; want a free-rider still downloading", p.sharing, p.pendingFor(2) != nil)
	}
}

// TestSteadyStateAllocs holds the second half of a paper-scale no-exchange
// run (ul 40, seed 1) to almost no allocation per event: sessions, requests
// and downloads come from free lists, and the indexes are dense.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := DefaultConfig()
	cfg.UploadKbps = 40
	cfg.Policy = core.PolicyNoExchange
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(cfg.Duration / 2)
	events := s.q.Fired() + s.arrived
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	events = res.Events - events
	per := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d mallocs over %d events: %.4f per event", after.Mallocs-before.Mallocs, events, per)
	if per > 0.005 {
		t.Errorf("%d mallocs over %d events in the second half: %.4f per event, want <= 0.005", after.Mallocs-before.Mallocs, events, per)
	}
}
