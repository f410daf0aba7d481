package sim

import (
	"reflect"
	"slices"
	"testing"

	"barter/internal/workload"
)

// shardConfig is testConfig partitioned across four domains.
func shardConfig() Config {
	cfg := testConfig()
	cfg.Shards = 4
	return cfg
}

func runEngine(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestNewEngineSelectsByShards(t *testing.T) {
	for _, shards := range []int{0, 1} {
		cfg := testConfig()
		cfg.Shards = shards
		if _, ok := mustEngine(t, cfg).(*Sim); !ok {
			t.Fatalf("Shards=%d: want *Sim", shards)
		}
	}
	if _, ok := mustEngine(t, shardConfig()).(*Sharded); !ok {
		t.Fatal("Shards=4: want *Sharded")
	}
}

func mustEngine(t *testing.T, cfg Config) Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func TestShardedConfigValidation(t *testing.T) {
	// Genuinely invalid input errors through NewEngine too.
	for name, mutate := range map[string]func(*Config){
		"negative shards": func(c *Config) { c.Shards = -1 },
		"negative window": func(c *Config) { c.ShardWindowSec = -1 },
	} {
		cfg := shardConfig()
		mutate(&cfg)
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	// NewSharded is strict: configs the partitioned engine cannot run are
	// errors when it is constructed directly.
	for name, mutate := range map[string]func(*Config){
		"too few peers": func(c *Config) { c.NumPeers = 2*c.Shards - 1 },
		"trace replay":  func(c *Config) { c.Trace = &workload.Trace{} },
		"ranker":        func(c *Config) { c.Ranker = &resetRecorder{} },
	} {
		cfg := shardConfig()
		mutate(&cfg)
		if _, err := NewSharded(cfg); err == nil {
			t.Errorf("%s: NewSharded accepted an unpartitionable config", name)
		}
	}
	// NewEngine falls back to the single-threaded engine for the same
	// configs (a blanket -shards flag must work across a whole experiment
	// registry, credit rankers included).
	for name, mutate := range map[string]func(*Config){
		"too few peers": func(c *Config) { c.NumPeers = 2*c.Shards - 1 },
		"ranker":        func(c *Config) { c.Ranker = &resetRecorder{} },
	} {
		cfg := shardConfig()
		mutate(&cfg)
		e, err := NewEngine(cfg)
		if err != nil {
			t.Errorf("%s: NewEngine did not fall back: %v", name, err)
			continue
		}
		if _, ok := e.(*Sim); !ok {
			t.Errorf("%s: NewEngine returned %T, want single-threaded *Sim", name, e)
		}
	}
	// New itself must refuse sharded configs: callers pick via NewEngine.
	if _, err := New(shardConfig()); err == nil {
		t.Fatal("New accepted Shards > 1")
	}
	if _, err := NewSharded(testConfig()); err == nil {
		t.Fatal("NewSharded accepted Shards <= 1")
	}
}

// TestShardedDeterminism pins the tentpole contract: for a fixed shard
// count, the result is a pure function of (config, seed) — identical across
// repeated runs and across worker-pool widths, including single-threaded
// inline execution.
func TestShardedDeterminism(t *testing.T) {
	base := runEngine(t, shardConfig())
	for name, mutate := range map[string]func(*Config){
		"rerun":     func(c *Config) {},
		"workers=1": func(c *Config) { c.ShardWorkers = 1 },
		"workers=4": func(c *Config) { c.ShardWorkers = 4 },
	} {
		cfg := shardConfig()
		mutate(&cfg)
		if got := runEngine(t, cfg); !reflect.DeepEqual(base, got) {
			t.Errorf("%s: sharded result diverged\nbase: %s\ngot:  %s",
				name, base.Summary(), got.Summary())
		}
	}
}

// TestShardedSeedsDiverge guards against the domains accidentally sharing
// one RNG position: different seeds must still produce different runs.
func TestShardedSeedsDiverge(t *testing.T) {
	a := runEngine(t, shardConfig())
	cfg := shardConfig()
	cfg.Seed = 2
	if b := runEngine(t, cfg); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical sharded results")
	}
}

// TestShardedCrossTraffic checks that the partition boundary actually
// carries work: remote fetches start, cross-domain blocks flow, and
// downloads complete in every domain's population.
func TestShardedCrossTraffic(t *testing.T) {
	res := runEngine(t, shardConfig())
	if res.RemoteFetches == 0 {
		t.Error("no remote fetches started")
	}
	if res.RemoteBlocks == 0 {
		t.Error("no cross-partition blocks delivered")
	}
	if res.CompletedSharing+res.CompletedNonSharing == 0 {
		t.Error("sharded run completed no downloads")
	}
	if res.Events == 0 {
		t.Error("sharded run executed no events")
	}
}

// TestShardedPreservesIncentiveShape: the paper's headline effect — sharing
// peers download faster than non-sharing ones under an exchange policy —
// must survive partitioning.
func TestShardedPreservesIncentiveShape(t *testing.T) {
	cfg := shardConfig()
	cfg.FreeriderFrac = 0.5
	res := runEngine(t, cfg)
	sharing, non := res.MeanDownloadMin(true), res.MeanDownloadMin(false)
	if sharing <= 0 || non <= 0 {
		t.Fatalf("missing download samples: sharing=%v non=%v", sharing, non)
	}
	if sharing >= non {
		t.Errorf("sharing peers not faster under shards: sharing=%.2f non=%.2f", sharing, non)
	}
}

// TestShardedWorkloadDeterminism: the open-loop workload layer compiles
// against the global population, so sharded workload runs must also be
// reproducible and must exercise the remote-fetch fallback path.
func TestShardedWorkloadDeterminism(t *testing.T) {
	cfg := quickWorkloadConfig()
	cfg.Shards = 4
	cfg.Workload, _ = workload.Builtin("flash")
	a := runEngine(t, cfg)
	b := runEngine(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sharded workload runs diverged:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
	if a.CompletedSharing+a.CompletedNonSharing == 0 {
		t.Fatal("sharded workload run completed no downloads")
	}
}

func TestShardedRunTwiceRejected(t *testing.T) {
	s, err := NewSharded(shardConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestShardedWindowOverride: a custom conservative window changes the
// epoch schedule (and thus the trajectory) but must stay deterministic.
func TestShardedWindowOverride(t *testing.T) {
	cfg := shardConfig()
	cfg.ShardWindowSec = 10
	a := runEngine(t, cfg)
	if b := runEngine(t, cfg); !reflect.DeepEqual(a, b) {
		t.Fatal("runs with a custom window diverged")
	}
}

// TestShardedInEdgeCacheSurvivesOrphans: a domain's remote stall timeout
// abandons downloads without withdrawing their queued requests, which is the
// one way an IRQ entry can outlive its download. The in-edge caches must
// stay equal to a rebuild through that (every demand change then invalidates
// them all), so the run has to produce orphans and end with clean caches.
func TestShardedInEdgeCacheSurvivesOrphans(t *testing.T) {
	cfg := shardConfig()
	cfg.UploadKbps = 40
	ss, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	orphaned := false
	for d, dom := range ss.domains {
		orphaned = orphaned || dom.orphaned
		for _, p := range dom.peers {
			if err := dom.checkAdjacency(p); err != nil {
				t.Errorf("domain %d peer %d: %v", d, p.id, err)
			}
		}
	}
	if !orphaned {
		t.Error("no domain abandoned a remote download; the test no longer covers the orphan path")
	}
}

// TestOrphanedDemandChangeInvalidatesInEdges stages the orphan case directly,
// because a run reaches it too rarely to pin: once a download has been
// abandoned with its requests left queued, removing or re-adding a pending
// download flips an existing entry's liveness at a server nothing marks, so
// the change itself must invalidate every cached in-edge list.
func TestOrphanedDemandChangeInvalidatesInEdges(t *testing.T) {
	cfg := testConfig()
	cfg.UploadKbps = 40
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fanout := cfg.SearchFanout
	var srv *peerState
	for srv == nil && s.Step() {
		for _, p := range s.peers {
			if len(s.adjacency(p.id, fanout)) > 0 {
				srv = p
				break
			}
		}
	}
	if srv == nil {
		t.Fatal("no peer ever had a live in-edge")
	}
	edge := s.adjacency(srv.id, fanout)[0]
	q := s.peers[edge.Peer]
	dl := q.pendingFor(edge.Object)

	s.orphaned = true
	s.removePending(q, edge.Object) // abandoned: the entry at srv stays queued
	if got := s.adjacency(srv.id, fanout); slices.Contains(got, edge) {
		t.Fatalf("in-edges of %d still list %v after its download was abandoned", srv.id, edge)
	}
	s.addPending(q, dl) // re-requested: the orphaned entry is live again
	if got := s.adjacency(srv.id, fanout); !slices.Contains(got, edge) {
		t.Fatalf("in-edges of %d miss %v after its download was re-requested", srv.id, edge)
	}
}
