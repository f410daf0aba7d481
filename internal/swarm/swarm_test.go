package swarm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"barter/internal/strategy"
	"barter/internal/testutil"
)

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(Config{Scenario: "bogus", Nodes: 10}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := Run(Config{Scenario: FlashCrowd, Nodes: 2}); err == nil {
		t.Fatal("tiny swarm accepted")
	}
	if _, err := Run(Config{Scenario: Freerider, Nodes: 10, FreeriderFrac: 0.95}); err == nil {
		t.Fatal("out-of-range freerider fraction accepted")
	}
}

func TestScenariosListed(t *testing.T) {
	if len(Scenarios()) != 8 {
		t.Fatalf("Scenarios() = %v", Scenarios())
	}
}

// TestFlashCrowd is the acceptance scenario: hundreds of live peers fetch
// one object from a few seeds over the in-memory transport, everyone
// completes, and no goroutine outlives the run.
func TestFlashCrowd(t *testing.T) {
	nodes := 300
	if testing.Short() {
		nodes = 120 // the race detector multiplies costs; stay second-scale
	}
	testutil.CheckGoroutineLeaks(t, 5)
	res, err := Run(Config{Scenario: FlashCrowd, Nodes: nodes, Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("flashcrowd: %d of %d downloads failed\n%s", res.Failed, res.Wanted, res.PeersTSV())
	}
	if res.Completed != res.Wanted || res.Wanted == 0 {
		t.Fatalf("flashcrowd: completed %d of %d", res.Completed, res.Wanted)
	}
	if mean, n := res.ClassMean(strategy.LabelSharing); n == 0 || mean <= 0 {
		t.Fatalf("no sharing-class completions recorded (n=%d mean=%v)", n, mean)
	}
	tsv := res.TSV()
	if !strings.Contains(tsv, "live/sharing") || !strings.Contains(tsv, "completed=") {
		t.Fatalf("TSV missing expected content:\n%s", tsv)
	}
}

// TestMixedWorkload drives the steady scenario and checks the aggregate
// accounting adds up.
func TestMixedWorkload(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 5)
	res, err := Run(Config{Scenario: Mixed, Nodes: 60, Quick: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != res.Wanted {
		t.Fatalf("mixed: completed %d failed %d of %d\n%s", res.Completed, res.Failed, res.Wanted, res.PeersTSV())
	}
	wanted, completed, failed := 0, 0, 0
	for _, p := range res.Peers {
		wanted += p.Wanted
		completed += p.Completed
		failed += p.Failed
	}
	if wanted != res.Wanted || completed != res.Completed || failed != res.Failed {
		t.Fatal("aggregate counters disagree with per-peer rows")
	}
}

// TestFreeriderGap is the live qualitative check of the simulator's
// Figure 12: with scarce, paced upload slots, the sharing class — served
// with exchange priority — completes its downloads faster than the
// non-sharing class, which launched its requests first and still waits.
func TestFreeriderGap(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 5)
	res, err := Run(Config{Scenario: Freerider, Nodes: 40, Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sharing, ns := res.ClassMean(strategy.LabelSharing)
	rider, nr := res.ClassMean(strategy.LabelNonSharing)
	if ns == 0 || nr == 0 {
		t.Fatalf("missing class completions (sharing n=%d, non-sharing n=%d)\n%s", ns, nr, res.PeersTSV())
	}
	if sharing >= rider {
		t.Fatalf("no incentive gap: sharing mean %v >= non-sharing mean %v\n%s", sharing, rider, res.PeersTSV())
	}
	// Exchange machinery, not just scheduling luck, must have carried
	// sharers: rings formed and exchange blocks flowed.
	rings, exch := 0, 0
	for _, p := range res.Peers {
		rings += p.Stats.RingsJoined
		exch += p.Stats.ExchangeBlocksSent
	}
	if rings == 0 || exch == 0 {
		t.Fatalf("no live exchanges in freerider run (rings=%d exchange blocks=%d)", rings, exch)
	}
	if !strings.Contains(res.TSV(), "live/non-sharing") {
		t.Fatalf("TSV missing non-sharing series:\n%s", res.TSV())
	}
}

// TestCheaterAudited: corrupt seeds serve junk; every downloader still
// completes from honest seeds (per-block validation), and the mediator's
// audit flags every cheater.
func TestCheaterAudited(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 5)
	res, err := Run(Config{Scenario: Cheater, Nodes: 60, Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("cheater scenario: %v\n%s", err, res.PeersTSV())
	}
	if res.Cheaters == 0 {
		t.Fatal("world built no corrupt peers")
	}
	rejected := 0
	for _, p := range res.Peers {
		rejected += p.Stats.BlocksRejected
	}
	if rejected == 0 {
		t.Fatal("no junk blocks were rejected — cheaters never probed anyone")
	}
}

// TestCheaterAuditedShardedTier reruns the cheater acceptance check with a
// 4-shard mediator tier: audits route by consistent hashing and the
// detection result must match the single-mediator run — every cheater
// flagged.
func TestCheaterAuditedShardedTier(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 5)
	res, err := Run(Config{Scenario: Cheater, Nodes: 60, Quick: true, Seed: 5, Mediators: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("cheater w/ shards: %v\n%s", err, res.PeersTSV())
	}
	if res.Cheaters == 0 {
		t.Fatal("world built no corrupt peers")
	}
	if res.Mediators != 4 {
		t.Fatalf("result reports %d mediators, want 4", res.Mediators)
	}
	if !strings.Contains(res.TSV(), "shards=4") {
		t.Fatalf("TSV missing shard count:\n%s", res.TSV())
	}
}

// TestMedfailScenario is the mediator-tier acceptance run: nodes speak the
// mediated block path natively while shards are killed and restarted
// mid-run. Every download must still complete, every cheater must end up
// flagged, and the audit machinery must show real node-side traffic.
func TestMedfailScenario(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 5)
	res, err := Run(Config{
		Scenario:        Medfail,
		Nodes:           48,
		Quick:           true,
		Seed:            5,
		MedKills:        4,
		MedKillInterval: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil || res.Completed != res.Wanted {
		t.Fatalf("medfail: %v (completed %d of %d)\n%s", err, res.Completed, res.Wanted, res.PeersTSV())
	}
	if res.Cheaters == 0 {
		t.Fatal("world built no corrupt peers")
	}
	audits := 0
	for _, p := range res.Peers {
		audits += p.Stats.MedVerifies
	}
	if audits == 0 {
		t.Fatal("no node-side audits ran — the mediated block path never engaged")
	}
	if res.ShardKills == 0 {
		t.Fatal("no mediator shard was ever killed")
	}
	if tsv := res.TSV(); !strings.Contains(tsv, "shard_kills=") {
		t.Fatalf("TSV missing shard-kill counter:\n%s", tsv)
	}
}

// TestMedfailDurable is the durable-tier acceptance run: the medfail mix
// with every shard behind a write-ahead log. Every download completes and
// every cheater ends up flagged as before, and — what the logs are for — no
// mid-run restart, nor the final restart of every shard, loses a flag.
func TestMedfailDurable(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 5)
	const kills, shards = 6, 4
	res, err := Run(Config{
		Scenario:        Medfail,
		Nodes:           48,
		Quick:           true,
		Seed:            5,
		Mediators:       shards,
		MedKills:        kills,
		MedKillInterval: 15 * time.Millisecond,
		MedDataDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("durable medfail: %v\n%s", err, res.PeersTSV())
	}
	if res.Cheaters == 0 {
		t.Fatal("world built no corrupt peers")
	}
	if res.FlagsLost != 0 {
		t.Fatalf("restarts lost %d flags", res.FlagsLost)
	}
	// A quick world can settle before the killer spends its budget, but
	// its first kill lands immediately and the final sweep restarts every
	// shard.
	if res.ShardKills < 1+shards || res.ShardKills > kills+shards {
		t.Fatalf("%d shard restarts, want 1..%d mid-run plus the full-tier restart's %d", res.ShardKills, kills, shards)
	}
	if tsv := res.TSV(); !strings.Contains(tsv, "flags_lost=0") || !strings.Contains(tsv, "honest_flagged=0") || !strings.Contains(tsv, "repl_dropped=") {
		t.Fatalf("TSV missing the durability counters:\n%s", tsv)
	}
}

// TestConcurrentRunsCountTheirOwnTier runs two swarms at once in one process,
// one nested inside the other. The outer, a cheater world on a 2-shard tier
// with no faults, holds at "world:" — its tier up — until the inner has
// finished. The inner is medfail over a durable tier whose data directory
// turns into a file as its world comes up, so its one shard kill cannot
// restart: that shard stays down, and its siblings drop every record meant
// for it. Each run must read its own tier: the inner's drops are nonzero,
// and the outer reads none of them.
func TestConcurrentRunsCountTheirOwnTier(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 5)
	type outcome struct {
		res *Result
		err error
	}
	up, innerDone, outer := make(chan struct{}), make(chan struct{}), make(chan outcome, 1)
	go func() {
		res, err := Run(Config{Scenario: Cheater, Nodes: 40, Quick: true, Seed: 3, Mediators: 2,
			Logf: func(format string, _ ...any) {
				if strings.HasPrefix(format, "world:") {
					close(up)
					<-innerDone
				}
			}})
		outer <- outcome{res, err}
	}()
	select {
	case <-up:
	case o := <-outer:
		t.Fatalf("the outer run returned before its world came up: %v", o.err)
	}
	dir := filepath.Join(t.TempDir(), "tier")
	inner, err := Run(Config{Scenario: Medfail, Nodes: 48, Quick: true, Seed: 5, MedKills: 1, MedDataDir: dir,
		Logf: func(format string, _ ...any) {
			if strings.HasPrefix(format, "world:") {
				// Every shard holds its log open; a restart must create the
				// directory again, and cannot.
				if err := os.RemoveAll(dir); err != nil {
					t.Error(err)
				}
				if err := os.WriteFile(dir, nil, 0o644); err != nil {
					t.Error(err)
				}
			}
		}})
	close(innerDone)
	o := <-outer
	if err != nil || o.err != nil {
		t.Fatalf("runs: inner %v, outer %v", err, o.err)
	}
	if inner.ReplDropped == 0 {
		t.Fatalf("a shard down for the whole run dropped no records:\n%s", inner.TSV())
	}
	if o.res.ReplDropped != 0 || o.res.WALLost != 0 {
		t.Fatalf("the outer run read the inner tier's counts (repl_dropped=%d wal_lost=%d)", o.res.ReplDropped, o.res.WALLost)
	}
	if err := o.res.Err(); err != nil {
		t.Fatalf("the outer run: %v", err)
	}
}

// TestResultErr pins the run verdict on hand-built results: each way a run
// can break the Section III-B claim is an error, and nothing else is.
func TestResultErr(t *testing.T) {
	ok := Result{Scenario: Medfail, Wanted: 40, Completed: 40, Cheaters: 3, Flagged: 3, ShardKills: 8}
	if err := ok.Err(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if err := (&Result{Scenario: FlashCrowd, Wanted: 9, Completed: 9}).Err(); err != nil {
		t.Fatalf("unmediated run: %v", err)
	}
	for name, breakIt := range map[string]func(*Result){
		"failed download":     func(r *Result) { r.Completed, r.Failed = 39, 1 },
		"unflagged cheater":   func(r *Result) { r.Flagged = 2 },
		"lost flag":           func(r *Result) { r.FlagsLost = 1 },
		"flagged honest peer": func(r *Result) { r.HonestFlagged = 1 },
	} {
		r := ok
		breakIt(&r)
		if r.Err() == nil {
			t.Errorf("%s: verdict is nil", name)
		}
	}
}

// TestChurn is the acceptance scenario for shutdown robustness: nodes are
// closed and restarted dozens of times mid-run (under -race in CI's short
// suite), every download still completes, and nothing leaks or hangs.
func TestChurn(t *testing.T) {
	restarts := 80
	nodes := 100
	if testing.Short() {
		restarts = 50 // the acceptance floor, affordable under -race
	}
	testutil.CheckGoroutineLeaks(t, 5)
	res, err := Run(Config{
		Scenario: Churn,
		Nodes:    nodes,
		Quick:    true,
		Seed:     13,
		Restarts: restarts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts < restarts {
		t.Fatalf("churned only %d times, want >= %d", res.Restarts, restarts)
	}
	if res.Failed != 0 || res.Completed != res.Wanted {
		t.Fatalf("churn: completed %d failed %d of %d (restarts=%d)\n%s",
			res.Completed, res.Failed, res.Wanted, res.Restarts, res.PeersTSV())
	}
}

// TestAdversaryScenario drives the full strategic-class population live:
// adaptive free-riders must be starved into contributing (flips), the
// whitewashers must churn identities at least once (their first want targets
// an adaptive-held object, unavailable for at least the patience window,
// which exceeds the whitewash interval), and every class must still complete
// all its downloads before the deadline.
func TestAdversaryScenario(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 5)
	res, err := Run(Config{
		Scenario:          Adversary,
		Nodes:             32,
		Quick:             true,
		Seed:              17,
		AdaptivePatience:  500 * time.Millisecond,
		WhitewashInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != res.Wanted {
		t.Fatalf("adversary: completed %d failed %d of %d\n%s",
			res.Completed, res.Failed, res.Wanted, res.PeersTSV())
	}
	classes := make(map[string]int)
	for _, p := range res.Peers {
		classes[p.Class]++
	}
	for _, want := range []string{strategy.LabelSharing, strategy.LabelAdaptive, strategy.LabelWhitewasher, strategy.LabelPartial} {
		if classes[want] == 0 {
			t.Fatalf("world built no %s peers: %v", want, classes)
		}
	}
	if res.Flips == 0 {
		t.Fatalf("adaptive free-riders were never starved into contributing\n%s", res.PeersTSV())
	}
	if res.Whitewashes == 0 {
		t.Fatalf("whitewashers never churned identity\n%s", res.PeersTSV())
	}
	tsv := res.TSV()
	for _, want := range []string{"live/" + strategy.LabelAdaptive, "live/" + strategy.LabelWhitewasher, "live/" + strategy.LabelPartial, "# adversary: flips="} {
		if !strings.Contains(tsv, want) {
			t.Fatalf("TSV missing %q:\n%s", want, tsv)
		}
	}
	// Whitewashed peers report identities beyond the initial range.
	fresh := false
	for _, p := range res.Peers {
		if p.Whitewashes > 0 && int(p.ID) > 32 {
			fresh = true
		}
	}
	if !fresh {
		t.Fatalf("no whitewasher ended under a fresh identity\n%s", res.PeersTSV())
	}
}

// TestAdversaryWorldStaysAtNodes is the regression test for the sharer
// top-up overflowing the population: with fractions that round the sharing
// class away entirely at a tiny population, the paired layout must still
// produce exactly Nodes peers with ids inside [1, Nodes] — otherwise a
// whitewasher's fresh identity could collide with a live initial peer.
func TestAdversaryWorldStaysAtNodes(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 5)
	res, err := Run(Config{
		Scenario:          Adversary,
		Nodes:             8,
		Quick:             true,
		Seed:              1,
		AdaptiveFrac:      0.3,
		WhitewashFrac:     0.3,
		PartialFrac:       0.3,
		AdaptivePatience:  200 * time.Millisecond,
		WhitewashInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 8 {
		t.Fatalf("world built %d peers, want 8\n%s", res.Nodes, res.PeersTSV())
	}
	seen := make(map[int]bool)
	for _, p := range res.Peers {
		id := int(p.ID)
		if p.Whitewashes == 0 && (id < 1 || id > 8) {
			t.Fatalf("initial peer id %d outside [1, 8]\n%s", id, res.PeersTSV())
		}
		if p.Whitewashes > 0 && id >= 1 && id <= 8 {
			t.Fatalf("whitewashed peer kept an initial-range id %d\n%s", id, res.PeersTSV())
		}
		if seen[id] {
			t.Fatalf("duplicate final id %d\n%s", id, res.PeersTSV())
		}
		seen[id] = true
	}
	if res.Failed != 0 {
		t.Fatalf("%d downloads failed\n%s", res.Failed, res.PeersTSV())
	}
}

// TestSwarmOverTCP runs a small flash crowd over real loopback sockets with
// read/write deadlines armed.
func TestSwarmOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP swarm skipped in -short (port churn under race)")
	}
	testutil.CheckGoroutineLeaks(t, 5)
	res, err := Run(Config{Scenario: FlashCrowd, Nodes: 40, Quick: true, Seed: 9, TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != res.Wanted {
		t.Fatalf("tcp flashcrowd: completed %d failed %d of %d", res.Completed, res.Failed, res.Wanted)
	}
}

func TestResultTSVShape(t *testing.T) {
	res := &Result{
		Scenario:      Freerider,
		Nodes:         4,
		FreeriderFrac: 0.5,
		Peers: []PeerResult{
			{ID: 1, Class: strategy.LabelSharing, Wanted: 1, Completed: 1, MeanCompletion: 2 * time.Second},
			{ID: 2, Class: strategy.LabelNonSharing, Wanted: 1, Completed: 1, MeanCompletion: 4 * time.Second},
		},
	}
	tsv := res.Table().TSV()
	if !strings.Contains(tsv, "fraction of non-sharing peers\tlive/sharing\tlive/non-sharing") {
		t.Fatalf("header shape:\n%s", tsv)
	}
	if !strings.Contains(tsv, "0.5\t2\t4") {
		t.Fatalf("row shape:\n%s", tsv)
	}
	if got, n := res.ClassMean(strategy.LabelNonSharing); n != 1 || got != 4*time.Second {
		t.Fatalf("ClassMean = %v, %d", got, n)
	}
	peers := res.PeersTSV()
	if !strings.HasPrefix(peers, "peer\tclass\t") || !strings.Contains(peers, "non-sharing") {
		t.Fatalf("peer rows:\n%s", peers)
	}
}
