package sim

import (
	"math"
	"testing"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/strategy"
)

// testConfig is a scaled-down world that runs in well under a second: 30
// peers, 0.5 MB objects, a few simulated hours. Shapes, not absolute
// numbers, carry over from the paper-scale configuration.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPeers = 30
	cfg.Catalog = catalog.Config{
		Categories:            10,
		ObjectsPerCategoryMin: 4,
		ObjectsPerCategoryMax: 20,
		CategoryFactor:        0.2,
		ObjectFactor:          0.2,
		CategoriesPerPeerMin:  2,
		CategoriesPerPeerMax:  6,
	}
	cfg.ObjectKbits = 4000
	cfg.BlockKbits = 250
	cfg.StorageMinObjects = 8
	cfg.StorageMaxObjects = 20
	cfg.MaxPending = 6
	cfg.Duration = 30_000
	cfg.EvictionInterval = 600
	cfg.RetryInterval = 120
	return cfg
}

func runOne(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestNewValidatesConfig(t *testing.T) {
	cfg := testConfig()
	cfg.NumPeers = 1
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestConfigValidateCases(t *testing.T) {
	mutations := map[string]func(*Config){
		"zero slot":         func(c *Config) { c.SlotKbps = 0 },
		"upload below slot": func(c *Config) { c.UploadKbps = 5 },
		"block > object":    func(c *Config) { c.BlockKbits = c.ObjectKbits + 1 },
		"bad storage":       func(c *Config) { c.StorageMinObjects = 0 },
		"bad irq":           func(c *Config) { c.IRQCapacity = 0 },
		"bad pending":       func(c *Config) { c.MaxPending = 0 },
		"bad freerider":     func(c *Config) { c.Mix = strategy.LegacyMix(1.5) },
		"bad lookup":        func(c *Config) { c.LookupMax = 0 },
		"bad duration":      func(c *Config) { c.Duration = 0 },
		"bad warmup":        func(c *Config) { c.WarmupFrac = 1 },
		"bad eviction":      func(c *Config) { c.EvictionInterval = 0 },
		"bad policy":        func(c *Config) { c.Policy = core.Policy{Kind: core.ShortFirst, MaxRing: 1} },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestSlotCounts(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.UploadSlots() != 8 || cfg.DownloadSlots() != 80 {
		t.Fatalf("slots = %d/%d, want 8/80", cfg.UploadSlots(), cfg.DownloadSlots())
	}
}

// shortConfig halves the simulated horizon in -short mode: determinism,
// divergence, and completion-count properties hold at any horizon, so the
// quick equivalent loses no coverage, only load.
func shortConfig() Config {
	cfg := testConfig()
	if testing.Short() {
		cfg.Duration = 12_000
	}
	return cfg
}

func TestDeterminism(t *testing.T) {
	cfg := shortConfig()
	a := runOne(t, cfg)
	b := runOne(t, cfg)
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
	if completed(a, true) != completed(b, true) || completed(a, false) != completed(b, false) {
		t.Fatalf("completions differ: %d/%d vs %d/%d",
			completed(a, true), completed(a, false), completed(b, true), completed(b, false))
	}
	if a.ExchangeFraction != b.ExchangeFraction {
		t.Fatalf("exchange fractions differ: %v vs %v", a.ExchangeFraction, b.ExchangeFraction)
	}
	am, bm := a.MeanDownloadMin(true), b.MeanDownloadMin(true)
	if am != bm && !(math.IsNaN(am) && math.IsNaN(bm)) {
		t.Fatalf("sharing means differ: %v vs %v", am, bm)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	cfg := shortConfig()
	a := runOne(t, cfg)
	cfg.Seed = 2
	b := runOne(t, cfg)
	if a.Events == b.Events && completed(a, true) == completed(b, true) &&
		a.ExchangeFraction == b.ExchangeFraction {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestRunCompletesDownloads(t *testing.T) {
	res := runOne(t, shortConfig())
	if completed(res, true) == 0 {
		t.Fatal("no sharing downloads completed")
	}
	if completed(res, false) == 0 {
		t.Fatal("no non-sharing downloads completed")
	}
	if res.ExchangeFraction <= 0 {
		t.Fatal("no exchange sessions at all under 2-5-way policy")
	}
}

func TestRunTwiceRejected(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run did not error")
	}
}

func TestInvariantsThroughoutRun(t *testing.T) {
	cfg := testConfig()
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
	if steps == 0 {
		t.Fatal("simulation fired no events")
	}
}

// TestSharingBeatsFreeriding is the paper's headline claim at test scale:
// under an exchange policy with tight upload capacity, sharing users see
// clearly faster downloads than free-riders.
func TestSharingBeatsFreeriding(t *testing.T) {
	cfg := testConfig()
	cfg.UploadKbps = 40
	cfg.Policy = core.Policy2N
	res := runOne(t, cfg)
	sh, non := res.MeanDownloadMin(true), res.MeanDownloadMin(false)
	if math.IsNaN(sh) || math.IsNaN(non) {
		t.Fatalf("missing samples: sharing=%v non=%v (completed %d/%d)",
			sh, non, completed(res, true), completed(res, false))
	}
	if sh >= non {
		t.Fatalf("sharing mean %.1f min not better than non-sharing %.1f min", sh, non)
	}
}

// TestNoExchangeIsNeutral verifies the baseline: without exchanges, sharing
// confers no advantage (both classes within a modest band).
func TestNoExchangeIsNeutral(t *testing.T) {
	cfg := testConfig()
	cfg.UploadKbps = 40
	cfg.Policy = core.PolicyNoExchange
	res := runOne(t, cfg)
	if res.ExchangeFraction != 0 {
		t.Fatalf("no-exchange run reported exchange fraction %v", res.ExchangeFraction)
	}
	sh, non := res.MeanDownloadMin(true), res.MeanDownloadMin(false)
	ratio := non / sh
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("no-exchange ratio %.2f outside neutral band (sharing %.1f, non %.1f)",
			ratio, sh, non)
	}
}

// TestExchangeAdvantageExceedsBaseline: the exchange policy must
// differentiate the classes more than the no-exchange baseline does.
func TestExchangeAdvantageExceedsBaseline(t *testing.T) {
	cfg := testConfig()
	cfg.UploadKbps = 40
	cfg.Policy = core.PolicyNoExchange
	base := runOne(t, cfg)
	cfg.Policy = core.Policy2N
	exch := runOne(t, cfg)
	if exch.SpeedupSharingVsNonSharing() <= base.SpeedupSharingVsNonSharing() {
		t.Fatalf("exchange speedup %.2f not above baseline %.2f",
			exch.SpeedupSharingVsNonSharing(), base.SpeedupSharingVsNonSharing())
	}
}

func TestRingSizesWithinPolicyLimit(t *testing.T) {
	cfg := shortConfig()
	cfg.UploadKbps = 40
	for _, pol := range []core.Policy{core.PolicyPairwise, core.Policy2N, core.PolicyN2} {
		cfg.Policy = pol
		res := runOne(t, cfg)
		for size := range res.RingsStarted {
			if size < 2 || size > pol.Limit() {
				t.Fatalf("%v: ring of size %d started", pol, size)
			}
		}
	}
}

func TestPairwisePolicyStartsOnlyPairs(t *testing.T) {
	cfg := shortConfig()
	cfg.Policy = core.PolicyPairwise
	res := runOne(t, cfg)
	for label := range res.SessionCount {
		if label != TypeNonExchange && label != TypePairwise {
			t.Fatalf("pairwise run produced %q sessions", label)
		}
	}
}

func TestDisablePreemption(t *testing.T) {
	cfg := testConfig()
	cfg.UploadKbps = 40
	cfg.DisablePreemption = true
	res := runOne(t, cfg)
	if res.Preemptions != 0 {
		t.Fatalf("preemption disabled but %d preemptions recorded", res.Preemptions)
	}
}

func TestPreemptionHappensUnderLoad(t *testing.T) {
	cfg := testConfig()
	cfg.UploadKbps = 20 // 2 slots: exchanges must reclaim capacity
	res := runOne(t, cfg)
	if res.Preemptions == 0 {
		t.Fatal("no preemptions under tight capacity (exchange priority never bit)")
	}
}

func TestAllFreeridersDegenerates(t *testing.T) {
	cfg := testConfig()
	cfg.Mix = strategy.LegacyMix(1)
	cfg.Duration = 5_000
	res := runOne(t, cfg)
	if completed(res, true) != 0 || completed(res, false) != 0 {
		t.Fatalf("downloads completed with zero sharers: %d/%d",
			completed(res, true), completed(res, false))
	}
}

func TestAllSharers(t *testing.T) {
	cfg := shortConfig()
	cfg.Mix = strategy.LegacyMix(0)
	res := runOne(t, cfg)
	if completed(res, false) != 0 {
		t.Fatal("non-sharing completions with zero free-riders")
	}
	if completed(res, true) == 0 {
		t.Fatal("no completions in an all-sharing system")
	}
}

func TestDisconnectPeerMidRun(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(5_000)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("pre-disconnect: %v", err)
	}
	// Disconnect the busiest sharing peers to maximize teardown coverage.
	var disconnected int
	for id := 0; id < s.NumPeers() && disconnected < 5; id++ {
		if s.PeerIsSharing(core.PeerID(id)) {
			s.DisconnectPeer(core.PeerID(id))
			disconnected++
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("post-disconnect: %v", err)
	}
	s.RunUntil(8_000)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after continued run: %v", err)
	}
}

func TestRejoinPeer(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(3_000)
	var victim core.PeerID = -1
	for id := 0; id < s.NumPeers(); id++ {
		if s.PeerIsSharing(core.PeerID(id)) {
			victim = core.PeerID(id)
			break
		}
	}
	if victim < 0 {
		t.Fatal("no sharing peer found")
	}
	s.DisconnectPeer(victim)
	s.DisconnectPeer(victim) // idempotent
	s.RunUntil(4_000)
	s.RejoinPeer(victim)
	s.RejoinPeer(victim) // idempotent
	s.RunUntil(6_000)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTypeLabel(t *testing.T) {
	cases := map[int]string{1: "non-exchange", 2: "pairwise", 3: "3-way", 5: "5-way"}
	for size, want := range cases {
		if got := TypeLabel(size); got != want {
			t.Fatalf("TypeLabel(%d) = %q, want %q", size, got, want)
		}
	}
}

func TestResultSummary(t *testing.T) {
	res := runOne(t, shortConfig())
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestWaitingTimesNonNegative(t *testing.T) {
	res := runOne(t, shortConfig())
	for _, key := range res.WaitingTimeMin.Keys() {
		sample := res.WaitingTimeMin.Get(key)
		if sample.Quantile(0) < 0 {
			t.Fatalf("negative waiting time in class %q", key)
		}
	}
}

func TestSessionVolumesWithinObjectSize(t *testing.T) {
	cfg := shortConfig()
	res := runOne(t, cfg)
	maxKB := cfg.ObjectKbits / 8
	for _, key := range res.SessionVolumeKB.Keys() {
		sample := res.SessionVolumeKB.Get(key)
		if sample.Quantile(1) > maxKB+cfg.BlockKbits/8 {
			t.Fatalf("session in class %q moved %v kB, object is only %v kB",
				key, sample.Quantile(1), maxKB)
		}
	}
}

func BenchmarkSimSmall(b *testing.B) {
	cfg := testConfig()
	cfg.Duration = 5_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
