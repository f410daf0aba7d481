package sim

import (
	"testing"

	"barter/internal/strategy"
	"barter/internal/workload"
)

// quickWorkloadConfig is a small, fast config for workload-mode tests.
func quickWorkloadConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPeers = 40
	cfg.Catalog.Categories = 40
	cfg.Catalog.ObjectsPerCategoryMax = 20
	cfg.ObjectKbits = 4000
	cfg.BlockKbits = 250
	cfg.Duration = 20_000
	cfg.WarmupFrac = 0
	cfg.Mix = strategy.LegacyMix(0.3)
	return cfg
}

func runOnce(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkloadRunCompletesDownloads(t *testing.T) {
	cfg := quickWorkloadConfig()
	cfg.Workload, _ = workload.Builtin("flash")
	res := runOnce(t, cfg)
	if completed(res, true)+completed(res, false) == 0 {
		t.Fatal("workload run completed no downloads")
	}
}

// TestWorkloadDeterminism pins the engine contract in workload mode: equal
// Configs (including Seed) produce byte-identical summaries.
func TestWorkloadDeterminism(t *testing.T) {
	cfg := quickWorkloadConfig()
	cfg.Workload, _ = workload.Builtin("waves")
	a := runOnce(t, cfg).Summary()
	b := runOnce(t, cfg).Summary()
	if a != b {
		t.Errorf("workload runs diverged:\n%s\nvs\n%s", a, b)
	}
	cfg.Seed = 2
	if c := runOnce(t, cfg).Summary(); c == a {
		t.Error("different seeds produced identical runs")
	}
}

// TestWorkloadCohortsChurn checks that a cohorted spec actually takes peers
// offline and brings them back: the run completes downloads despite the
// sessions, and a spec whose cohorts never overlap the measurement start
// still works.
func TestWorkloadCohortsChurn(t *testing.T) {
	cfg := quickWorkloadConfig()
	spec, _ := workload.Builtin("constant")
	spec.Cohorts = []workload.Cohort{
		{Name: "late", Frac: 0.5, Arrive: 0.5},
	}
	cfg.Workload = spec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Before any events fire, the late half of the population is offline.
	offline := 0
	for i := 0; i < cfg.NumPeers; i++ {
		if !s.peers[i].online {
			offline++
		}
	}
	if offline != cfg.NumPeers/2 {
		t.Fatalf("%d peers offline at start, want %d", offline, cfg.NumPeers/2)
	}
	s.RunUntil(cfg.Duration * 0.9)
	for i := 0; i < cfg.NumPeers; i++ {
		if !s.peers[i].online {
			t.Fatalf("peer %d still offline at 90%% of the horizon", i)
		}
	}
}

// TestWorkloadDisablesClosedLoop checks the open-loop contract: with a
// workload set, completing a download must not top the peer back up via
// issueRequests, so total demand is bounded by the spec's arrivals.
func TestWorkloadDisablesClosedLoop(t *testing.T) {
	cfg := quickWorkloadConfig()
	spec, _ := workload.Builtin("constant")
	spec.RequestsPerPeer = 2 // tiny demand: closed-loop leakage would dwarf it
	cfg.Workload = spec
	res := runOnce(t, cfg)
	maxDemand := 2 * cfg.NumPeers
	if got := completed(res, true) + completed(res, false); got > maxDemand {
		t.Errorf("completed %d downloads, more than the spec's total demand %d", got, maxDemand)
	}
}

func TestWorkloadAndTraceMutuallyExclusive(t *testing.T) {
	cfg := quickWorkloadConfig()
	cfg.Workload, _ = workload.Builtin("flash")
	cfg.Trace = &workload.Trace{Header: workload.Header{Version: workload.TraceVersion, Nodes: 2, Horizon: 1}}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted Workload and Trace together")
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted Workload and Trace together")
	}
}

// syntheticTrace is a hand-built trace: peer 0 holds two objects from the
// start, peer 1 requests both, peer 2 arrives mid-run and requests one.
func syntheticTrace() *workload.Trace {
	rec := workload.NewRecorder()
	rec.Hold(0, 1)
	rec.Hold(0, 2)
	rec.Request(1, 1, 1)
	rec.Request(2, 1, 2)
	rec.Arrive(50, 2)
	rec.Request(60, 2, 1)
	rec.Depart(4000, 2)
	return rec.Trace(workload.Header{
		Scenario:    "synthetic",
		Nodes:       3,
		Objects:     2,
		ObjectKbits: 100,
		BlockKbits:  10,
		Horizon:     100,
	})
}

func TestTraceReplayCompletesRecordedDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = syntheticTrace()
	cfg.WarmupFrac = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPeers() != 3 {
		t.Fatalf("replay population %d, want 3 from the trace header", s.NumPeers())
	}
	if s.peers[2].online {
		t.Error("peer with an arrive event started online")
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// All three recorded requests must complete: the objects are tiny and
	// the horizon was extended far past the recorded one.
	if got := completed(res, true) + completed(res, false); got != 3 {
		t.Errorf("replay completed %d downloads, want 3", got)
	}
	if !s.peers[1].has(1) || !s.peers[1].has(2) || !s.peers[2].has(1) {
		t.Error("replayed peers missing recorded objects")
	}
	if s.peers[2].online {
		t.Error("departed peer still online at end")
	}
}

func TestTraceReplayDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = syntheticTrace()
	cfg.WarmupFrac = 0
	a := runOnce(t, cfg).Summary()
	b := runOnce(t, cfg).Summary()
	if a != b {
		t.Errorf("replays diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestTraceReplayRetriesUntilHolderArrives pins the persistent-demand rule:
// a request recorded before its provider's arrival retries until the
// provider shows up, instead of being dropped.
func TestTraceReplayRetriesUntilHolderArrives(t *testing.T) {
	rec := workload.NewRecorder()
	rec.Arrive(500, 0) // the only holder arrives late
	rec.Hold(0, 1)
	rec.Request(1, 1, 1) // demanded long before the holder exists
	tr := rec.Trace(workload.Header{
		Nodes: 2, Objects: 1, ObjectKbits: 100, BlockKbits: 10, Horizon: 600,
	})
	cfg := DefaultConfig()
	cfg.Trace = tr
	cfg.WarmupFrac = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := completed(res, true) + completed(res, false); got != 1 {
		t.Errorf("replay completed %d downloads, want 1 after retrying past the arrival", got)
	}
	if res.LookupFailures == 0 {
		t.Error("expected lookup failures while the holder was absent")
	}
}

// TestTraceConfigCapsBlockSize pins the geometry override: a trace recorded
// with swarm-scale objects must not fail Validate against the sim's default
// 500-kbit block.
func TestTraceConfigCapsBlockSize(t *testing.T) {
	rec := workload.NewRecorder()
	rec.Hold(0, 1)
	rec.Request(1, 1, 1)
	tr := rec.Trace(workload.Header{
		Nodes: 2, Objects: 1, ObjectKbits: 262.144, Horizon: 10, // quick-swarm 32 KiB objects
	})
	cfg := DefaultConfig()
	cfg.Trace = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.BlockKbits > s.cfg.ObjectKbits {
		t.Errorf("BlockKbits %v exceeds ObjectKbits %v after override", s.cfg.BlockKbits, s.cfg.ObjectKbits)
	}
}

// TestLegacyUnaffectedByNewFields re-pins the byte-identity guarantee: a
// config without Workload or Trace behaves exactly as before this layer
// existed (the full-identity tests elsewhere cover figures; this is the
// cheap canary).
func TestLegacyUnaffectedByNewFields(t *testing.T) {
	cfg := quickWorkloadConfig()
	a := runOnce(t, cfg).Summary()
	b := runOnce(t, cfg).Summary()
	if a != b {
		t.Error("legacy run no longer deterministic")
	}
}
