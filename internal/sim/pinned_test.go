package sim

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"barter/internal/core"
	"barter/internal/credit"
	"barter/internal/metrics"
	"barter/internal/strategy"
)

// pinnedCounts renders the traversal fingerprint of one run: the event count,
// the ring-search effort counters, rings started, and per-class completions.
// Any change to event order, adjacency order, search traversal, or RNG draw
// sequence moves at least one of them.
func pinnedCounts(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d searches=%d nodes=%d wants=%d rings=%d completed=",
		r.Events, r.RingSearches, r.SearchNodesVisited, r.SearchWantsChecked,
		r.RingAttempts-r.RingValidationFailures)
	for i, c := range r.Classes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d", c.Label, c.Completed)
	}
	return b.String()
}

// fingerprint is everything the pinned tests render of one run: two runs
// that agree on it agree on every count, float bit and session sample they
// pin.
func fingerprint(r *Result) string {
	return pinnedCounts(r) + "\n" + pinnedAccounting(r) + "\n" + pinnedSessions(r)
}

// TestPinnedCounts is the in-suite form of "the traversal did not change":
// every engine optimization must reproduce the counts below exactly. They
// were last re-captured when the order of ties at an instant became
// declared (blocks.go) instead of inherited from a block queue, which moved
// every row; TestLazyMatchesEager held that engine to its reference first.
// A deliberate behavior change re-captures them in the same commit and
// says why.
func TestPinnedCounts(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		want string
	}{
		{"5-2-way", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.PolicyN2
			return cfg
		}, "events=71448 searches=33479 nodes=2518434 wants=8515865 rings=4026 completed=non-sharing:1054,sharing:2114"},
		{"2-5-way", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			return cfg
		}, "events=69507 searches=29511 nodes=164059 wants=592885 rings=4611 completed=non-sharing:816,sharing:2255"},
		{"no-exchange", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.PolicyNoExchange
			return cfg
		}, "events=70603 searches=0 nodes=0 wants=0 rings=0 completed=non-sharing:1707,sharing:1356"},
		{"kazaa-whitewasher", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Policy = core.PolicyNoExchange
			cfg.Ranker = credit.NewKaZaA(nil)
			return cfg
		}, "events=57875 searches=0 nodes=0 wants=0 rings=0 completed=whitewasher:480,non-sharing:394,sharing:1628"},
		{"emule", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Policy = core.PolicyNoExchange
			cfg.Ranker = credit.NewEMule()
			return cfg
		}, "events=58463 searches=0 nodes=0 wants=0 rings=0 completed=whitewasher:659,non-sharing:614,sharing:1206"},
		// Ring searches while peers depart: whitewashers disconnect and
		// rejoin mid-run, so searches walk IRQs their departures just
		// changed. The one row that tells "a departing peer's requests are
		// withdrawn before anything searches" from merely "offline
		// requesters are skipped".
		{"exchange-whitewasher", func() Config {
			return adversaryConfig(strategy.Whitewasher(), 0.3)
		}, "events=58201 searches=18680 nodes=96363 wants=367100 rings=2845 completed=whitewasher:631,non-sharing:430,sharing:1476"},
		// Retries land exactly one block time after the event that armed
		// them, so a heap event regularly falls on an instant where blocks
		// land and downloads complete: the tie rule decides which comes
		// first.
		{"retry-on-block-instant", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			cfg.RetryInterval = cfg.BlockKbits / cfg.SlotKbps
			return cfg
		}, "events=80031 searches=29902 nodes=186038 wants=673308 rings=4748 completed=non-sharing:953,sharing:2228"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.Seed = 1
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := pinnedCounts(res); got != tc.want {
				t.Errorf("counts moved:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// pinnedSessions renders the per-ring-size session statistics of one run:
// SessionCount sorted by key, then for SessionVolumeKB and WaitingTimeMin the
// keys in first-seen order with each key's sample count and the bits of its
// mean. The mean sums the samples in insertion order, so its bits
// fingerprint the samples and, through rounding, their order.
func pinnedSessions(r *Result) string {
	var b strings.Builder
	b.WriteString("count:")
	for _, k := range slices.Sorted(maps.Keys(r.SessionCount)) {
		fmt.Fprintf(&b, " %s=%d", k, r.SessionCount[k])
	}
	for _, g := range []struct {
		name string
		s    *metrics.Grouped
	}{{"volume", r.SessionVolumeKB}, {"waiting", r.WaitingTimeMin}} {
		fmt.Fprintf(&b, "\n%s:", g.name)
		for _, k := range g.s.Keys() {
			s := g.s.Get(k)
			fmt.Fprintf(&b, " %s=%d/%#x", k, s.N(), math.Float64bits(s.Mean()))
		}
	}
	return b.String()
}

// TestPinnedSessionStats pins what the collector records per finished
// session, keyed by ring size, on the quick world's two exchange policies.
// Re-captured with TestPinnedCounts; the waiting-time bits alone were
// re-captured again when the clock became whole nanoseconds.
func TestPinnedSessionStats(t *testing.T) {
	cases := []struct {
		name string
		pol  core.Policy
		want string
	}{
		{"5-2-way", core.PolicyN2,
			"count: 3-way=378 4-way=540 5-way=11880 non-exchange=9963 pairwise=754" +
				"\nvolume: non-exchange=9963/0x4053312dc34ee8d9 5-way=11880/0x404c03b79890cede pairwise=754/0x40642726b4a04130 4-way=540/0x404f04bda12f684c 3-way=378/0x4056a1a69a69a69a" +
				"\nwaiting: non-exchange=9963/0x40250ab3f13118b9 5-way=11880/0x401121051d3fba0d pairwise=754/0x40083fd48a86736d 4-way=540/0x400b77268edab4cc 3-way=378/0x4009f59d92bcba07"},
		{"2-5-way", core.Policy2N,
			"count: 3-way=1203 4-way=176 5-way=5 non-exchange=7719 pairwise=5904" +
				"\nvolume: pairwise=5904/0x405e241fe9cca947 non-exchange=7719/0x405796dd79ae9d01 3-way=1203/0x40577ef66c875776 4-way=176/0x4051940000000000 5-way=5/0x404f400000000000" +
				"\nwaiting: pairwise=5904/0x400997413dd73f3c non-exchange=7719/0x40247c3491711522 3-way=1203/0x40094074938f1996 4-way=176/0x400b3ff5c0837067 5-way=5/0x4014cccccccccccd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = tc.pol
			cfg.Seed = 1
			if got := pinnedSessions(runOne(t, cfg)); got != tc.want {
				t.Errorf("session stats moved:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// pinnedAccounting renders what block accounting feeds into a Result: the
// event count, the horizon, and per class the completions and the bits of
// the window volume per peer and of the mean download time. A block counted
// on the wrong side of a tie, or credited to the wrong class or window,
// moves at least one of them.
func pinnedAccounting(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d horizon=%#x", r.Events, math.Float64bits(r.SimulatedSeconds))
	for _, c := range r.Classes {
		fmt.Fprintf(&b, " %s:%d/%#x/%#x", c.Label, c.Completed,
			math.Float64bits(c.VolumePerPeerMB), math.Float64bits(c.DownloadTime.Mean()))
	}
	return b.String()
}

// TestPinnedAccounting pins the accumulators per-block work feeds — events,
// per-class volume and download time — on every TestPinnedCounts world, plus
// one where the mid-transfer terminations fall on block instants: evictions
// and whitewashes every few block times, storage tight enough that every
// sweep evicts, several servers feeding each download and a ranker scoring
// between blocks. Re-captured with TestPinnedCounts; the mean-download-time
// bits alone were re-captured again when the clock became whole
// nanoseconds, which computes each time difference exactly.
func TestPinnedAccounting(t *testing.T) {
	for _, tc := range accountingCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.Seed = 1
			if got := pinnedAccounting(runOne(t, cfg)); got != tc.want {
				t.Errorf("accounting moved:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// accountingCase is one TestPinnedAccounting world and its pinned line.
type accountingCase struct {
	name string
	cfg  func() Config
	want string
}

func accountingCases() []accountingCase {
	blockTime := func(cfg Config) float64 { return cfg.BlockKbits / cfg.SlotKbps }
	return []accountingCase{
		{"5-2-way", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.PolicyN2
			return cfg
		}, "events=71448 horizon=0x40dd4c0000000000 non-sharing:1054/0x4041daaaaaaaaaab/0x402dafc238aea853 sharing:2114/0x4051fc2222222222/0x401ee9d6d3ada768"},
		{"2-5-way", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			return cfg
		}, "events=69507 horizon=0x40dd4c0000000000 non-sharing:816/0x403b86eeeeeeeeef/0x402c2547eb608229 sharing:2255/0x4053206666666666/0x401b3a462fbbd26b"},
		{"no-exchange", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.PolicyNoExchange
			return cfg
		}, "events=70603 horizon=0x40dd4c0000000000 non-sharing:1707/0x404d66aaaaaaaaab/0x401a7965ef104c99 sharing:1356/0x404750cccccccccd/0x401a68119f70ad98"},
		{"kazaa-whitewasher", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Policy = core.PolicyNoExchange
			cfg.Ranker = credit.NewKaZaA(nil)
			return cfg
		}, "events=57875 horizon=0x40dd4c0000000000 whitewasher:480/0x403b7471c71c71c7/0x40309aa36ed8fe9f non-sharing:394/0x4035d8e38e38e38e/0x4035645a0a3eb0e9 sharing:1628/0x4051472aaaaaaaab/0x4012f6281ffaeca0"},
		{"emule", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Policy = core.PolicyNoExchange
			cfg.Ranker = credit.NewEMule()
			return cfg
		}, "events=58463 horizon=0x40dd4c0000000000 whitewasher:659/0x40431e38e38e38e3/0x401dc477ea0ca267 non-sharing:614/0x40414638e38e38e3/0x40201520ed5f5ec3 sharing:1206/0x4049b6aaaaaaaaab/0x401c29d1e606f203"},
		{"exchange-whitewasher", func() Config {
			return adversaryConfig(strategy.Whitewasher(), 0.3)
		}, "events=58201 horizon=0x40dd4c0000000000 whitewasher:631/0x4041ef1c71c71c72/0x40274f9269da6cc3 non-sharing:430/0x403828e38e38e38e/0x40269cb2eeea1f2c sharing:1476/0x404f21aaaaaaaaab/0x401d7593ce279174"},
		{"retry-on-block-instant", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			cfg.RetryInterval = blockTime(cfg)
			return cfg
		}, "events=80031 horizon=0x40dd4c0000000000 non-sharing:953/0x40405d1111111111/0x402ba548c5988620 sharing:2228/0x405337bbbbbbbbbb/0x4019ac1f3771e30b"},
		{"terminations-on-block-instants", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Ranker = credit.NewEMule()
			cfg.StorageMinObjects, cfg.StorageMaxObjects = 3, 5
			cfg.EvictionInterval = 4 * blockTime(cfg)
			cfg.WhitewashInterval = 24 * blockTime(cfg)
			cfg.RetryInterval = blockTime(cfg)
			return cfg
		}, "events=75987 horizon=0x40dd4c0000000000 whitewasher:205/0x402e671c71c71c72/0x401308d6a86ba8af non-sharing:236/0x402aac71c71c71c7/0x401a23f3b495c7c1 sharing:1691/0x40525e0000000000/0x400fe10b08485261"},
	}
}
