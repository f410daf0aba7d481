package sim

import (
	"math"
	"testing"

	"barter/internal/core"
	"barter/internal/strategy"
)

// TestExplicitLegacyMixIsIdentical pins the refactor contract: a config with
// an explicit strategy.LegacyMix(0.5) must reproduce the nil-Mix run byte
// for byte (events, completions, means).
func TestExplicitLegacyMixIsIdentical(t *testing.T) {
	cfg := shortConfig()
	a := runOne(t, cfg)
	cfg.Mix = strategy.LegacyMix(0.5)
	b := runOne(t, cfg)
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
	if completed(a, true) != completed(b, true) || completed(a, false) != completed(b, false) {
		t.Fatalf("completions differ: %d/%d vs %d/%d",
			completed(a, true), completed(a, false), completed(b, true), completed(b, false))
	}
	if am, bm := a.MeanDownloadMin(true), b.MeanDownloadMin(true); am != bm && !(math.IsNaN(am) && math.IsNaN(bm)) {
		t.Fatalf("sharing means differ: %v vs %v", am, bm)
	}
	if a.VolumePerPeerMB(true) != b.VolumePerPeerMB(true) {
		t.Fatalf("volumes differ: %v vs %v", a.VolumePerPeerMB(true), b.VolumePerPeerMB(true))
	}
}

// TestLegacyClassResults: the two legacy classes appear as per-class
// results; TestLegacySidesAreTheClasses checks the side aggregates against
// them.
func TestLegacyClassResults(t *testing.T) {
	res := runOne(t, shortConfig())
	if len(res.Classes) != 2 {
		t.Fatalf("got %d classes, want 2", len(res.Classes))
	}
	non, sh := res.Class(strategy.LabelNonSharing), res.Class(strategy.LabelSharing)
	if non == nil || sh == nil {
		t.Fatalf("missing legacy classes: %+v", res.Classes)
	}
	if m := res.ClassMeanDownloadMin(strategy.LabelSharing); m != sh.DownloadTime.Mean() {
		t.Fatalf("ClassMeanDownloadMin = %v, class sample mean %v", m, sh.DownloadTime.Mean())
	}
	if res.Class("no-such-class") != nil || !math.IsNaN(res.ClassMeanDownloadMin("no-such-class")) {
		t.Fatal("absent class did not report nil/NaN")
	}
}

func adversaryConfig(adv strategy.Strategy, frac float64) Config {
	cfg := testConfig()
	cfg.UploadKbps = 40
	cfg.Policy = core.Policy2N
	cfg.Mix = strategy.Mix{
		{Strategy: adv, Frac: frac},
		{Strategy: strategy.NonSharing(), Frac: frac},
		{Strategy: strategy.Sharing(), Frac: 1 - 2*frac},
	}
	return cfg
}

func TestMixValidationInConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Mix = strategy.Mix{{Strategy: strategy.Sharing(), Frac: 0.5}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("under-full mix accepted")
	}
	cfg.Mix = strategy.Mix{
		{Strategy: strategy.Corrupt(), Frac: 0.5},
		{Strategy: strategy.Sharing(), Frac: 0.5},
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("corrupt strategy accepted by the simulator")
	}
}

// TestPartialSharerThrottled: partial sharers run with reduced upload slots,
// still complete downloads, and never exceed their cap (CheckInvariants
// enforces the cap per event below).
func TestPartialSharerThrottled(t *testing.T) {
	cfg := adversaryConfig(strategy.PartialSharer(), 0.25)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capped := 0
	for _, p := range s.peers {
		if p.strat.Name == strategy.LabelPartial {
			if want := p.strat.SlotCap(cfg.UploadSlots()); p.ulSlots != want {
				t.Fatalf("partial peer %d has %d slots, want %d", p.id, p.ulSlots, want)
			}
			if p.ulSlots >= cfg.UploadSlots() {
				t.Fatalf("partial peer %d not throttled (%d of %d slots)", p.id, p.ulSlots, cfg.UploadSlots())
			}
			capped++
		}
	}
	if capped == 0 {
		t.Fatal("mix assigned no partial sharers")
	}
	s.RunUntil(10_000)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	res, err := s.colResultForTest()
	if err != nil {
		t.Fatal(err)
	}
	if res.Class(strategy.LabelPartial).Completed == 0 {
		t.Fatal("partial sharers completed nothing")
	}
}

// TestAdaptiveFreeriderFlips: under exchange priority with tight capacity,
// adaptive free-riders get starved, start contributing, and complete
// downloads; the flip counter records the toggles.
func TestAdaptiveFreeriderFlips(t *testing.T) {
	cfg := adversaryConfig(strategy.AdaptiveFreerider(), 0.25)
	cfg.AdaptivePatience = 300
	res := runOne(t, cfg)
	adaptive := res.Class(strategy.LabelAdaptive)
	if adaptive == nil {
		t.Fatal("no adaptive class in results")
	}
	if adaptive.Flips == 0 {
		t.Fatal("adaptive free-riders never started contributing (no flips)")
	}
	if adaptive.Completed == 0 {
		t.Fatal("adaptive free-riders completed nothing")
	}
}

// TestAdaptiveInvariantsThroughFlips interleaves invariant checks with a run
// containing adaptive peers: the contribute/defect transitions must never
// corrupt holder indexes or session bookkeeping.
func TestAdaptiveInvariantsThroughFlips(t *testing.T) {
	cfg := adversaryConfig(strategy.AdaptiveFreerider(), 0.3)
	cfg.AdaptivePatience = 200
	cfg.Duration = 10_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for s.Step() {
		steps++
		if steps%500 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("after %d events (t=%.0fs): %v", steps, s.Now(), err)
			}
		}
		if s.Now() > cfg.Duration {
			break
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("final state: %v", err)
	}
}

// TestWhitewasherChurnsIdentity: whitewashing peers periodically drop their
// state and rejoin; the run stays consistent and counts the churns.
func TestWhitewasherChurnsIdentity(t *testing.T) {
	cfg := adversaryConfig(strategy.Whitewasher(), 0.25)
	cfg.WhitewashInterval = 2_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for s.Step() {
		steps++
		if steps%1000 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("after %d events (t=%.0fs): %v", steps, s.Now(), err)
			}
		}
		if s.Now() > cfg.Duration {
			break
		}
	}
	res, err := s.colResultForTest()
	if err != nil {
		t.Fatal(err)
	}
	ww := res.Class(strategy.LabelWhitewasher)
	if ww == nil || ww.Whitewashes == 0 {
		t.Fatalf("no whitewashes recorded: %+v", ww)
	}
}

// resetRecorder records WhitewashResetter calls.
type resetRecorder struct {
	resets map[core.PeerID]int
}

func (r *resetRecorder) Score(_, _ core.PeerID, waited float64) float64 { return waited }
func (r *resetRecorder) OnTransfer(_, _ core.PeerID, _ float64)         {}
func (r *resetRecorder) OnWhitewash(p core.PeerID) {
	if r.resets == nil {
		r.resets = make(map[core.PeerID]int)
	}
	r.resets[p]++
}

// TestWhitewashResetsRanker: every identity churn must wipe the ranker's
// books for exactly the whitewashing peer.
func TestWhitewashResetsRanker(t *testing.T) {
	cfg := adversaryConfig(strategy.Whitewasher(), 0.25)
	cfg.Policy = core.PolicyNoExchange
	cfg.WhitewashInterval = 2_000
	cfg.Duration = 10_000
	rec := &resetRecorder{}
	cfg.Ranker = rec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.resets) == 0 {
		t.Fatal("ranker never saw a whitewash")
	}
	for id := range rec.resets {
		if s.PeerClassLabel(id) != strategy.LabelWhitewasher {
			t.Fatalf("peer %d (%s) reset the ranker but is not a whitewasher", id, s.PeerClassLabel(id))
		}
	}
}

// TestPeerClassesMatchesRun: the out-of-band class derivation must agree
// with the constructed simulation for a rich mix too.
func TestPeerClassesMatchesRun(t *testing.T) {
	cfg := adversaryConfig(strategy.PartialSharer(), 0.2)
	classes := PeerClasses(cfg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < s.NumPeers(); id++ {
		pid := core.PeerID(id)
		if classes[pid] != s.peers[pid].strat.Share {
			t.Fatalf("peer %d: PeerClasses says share=%v, run says %v",
				id, classes[pid], s.peers[pid].strat.Share)
		}
	}
}

// colResultForTest finalizes the collector mid-run the way Run does, for
// tests that drive the engine manually.
func (s *Sim) colResultForTest() (*Result, error) {
	for _, p := range s.peers {
		for _, up := range p.uploads {
			if !up.closed {
				s.col.sessionDone(s.q.Now(), up)
				up.closed = true
			}
		}
	}
	return s.col.result(s.cfg.Policy.String(), s.q.Now(), s.q.Fired(), s.mix.Counts(len(s.peers))), nil
}
