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
// were last re-captured when the downloads due at one instant began to
// complete as one batch, every one keeping its books before any teardown
// runs (completeDue), so no session starts for a download that is already
// whole; that moved every row, after TestTiesAtAnInstant and
// TestLazyMatchesEager passed. A deliberate behavior change re-captures
// them in the same commit and says why.
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
		}, "events=71219 searches=30990 nodes=2053974 wants=6542141 rings=3563 completed=non-sharing:1102,sharing:2069"},
		{"2-5-way", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			return cfg
		}, "events=70077 searches=28792 nodes=170091 wants=618571 rings=4183 completed=non-sharing:989,sharing:2106"},
		{"no-exchange", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.PolicyNoExchange
			return cfg
		}, "events=72373 searches=0 nodes=0 wants=0 rings=0 completed=non-sharing:1632,sharing:1464"},
		{"kazaa-whitewasher", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Policy = core.PolicyNoExchange
			cfg.Ranker = credit.NewKaZaA(nil)
			return cfg
		}, "events=56950 searches=0 nodes=0 wants=0 rings=0 completed=whitewasher:482,non-sharing:282,sharing:1646"},
		{"emule", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Policy = core.PolicyNoExchange
			cfg.Ranker = credit.NewEMule()
			return cfg
		}, "events=59180 searches=0 nodes=0 wants=0 rings=0 completed=whitewasher:869,non-sharing:611,sharing:1045"},
		// Ring searches while peers depart: whitewashers disconnect and
		// rejoin mid-run, so searches walk IRQs their departures just
		// changed. The one row that tells "a departing peer's requests are
		// withdrawn before anything searches" from merely "offline
		// requesters are skipped".
		{"exchange-whitewasher", func() Config {
			return adversaryConfig(strategy.Whitewasher(), 0.3)
		}, "events=58335 searches=19483 nodes=105488 wants=420400 rings=2314 completed=whitewasher:693,non-sharing:602,sharing:1217"},
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
		}, "events=80950 searches=28497 nodes=168712 wants=640393 rings=4028 completed=non-sharing:1088,sharing:2043"},
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
// Re-captured with TestPinnedCounts.
func TestPinnedSessionStats(t *testing.T) {
	cases := []struct {
		name string
		pol  core.Policy
		want string
	}{
		{"5-2-way", core.PolicyN2,
			"count: 3-way=531 4-way=652 5-way=9530 non-exchange=9221 pairwise=806" +
				"\nvolume: non-exchange=9221/0x4055631c74efc241 5-way=9530/0x405004bc09aba6d1 pairwise=806/0x406218c11c95ea67 3-way=531/0x405912143fa36f5e 4-way=652/0x4053fc907da4e871" +
				"\nwaiting: non-exchange=9221/0x4023ae670f653ced 5-way=9530/0x400dca7d599742bd pairwise=806/0x4008a0b1489b42ae 3-way=531/0x40097982479c4f1e 4-way=652/0x400ae9d1e1930df3"},
		{"2-5-way", core.Policy2N,
			"count: 3-way=1134 4-way=160 5-way=40 non-exchange=7972 pairwise=5170" +
				"\nvolume: 4-way=160/0x40528e0000000000 non-exchange=7972/0x40599ab100e62e80 pairwise=5170/0x405ef1db5b9afc89 3-way=1134/0x40580ebaebaebaec 5-way=40/0x4037700000000000" +
				"\nwaiting: 4-way=160/0x40069c68977106e6 non-exchange=7972/0x401a2711e8f7186a pairwise=5170/0x4005061f32b4238b 3-way=1134/0x40055a742a7e0179 5-way=40/0x4006754b4ea818b4"},
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
// between blocks. Re-captured with TestPinnedCounts.
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
		}, "events=71219 horizon=0x40dd4c0000000000 non-sharing:1102/0x4042a0cccccccccd/0x402c156e81c44fe3 sharing:2069/0x4051a5999999999a/0x401cb65dafb72469"},
		{"2-5-way", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			return cfg
		}, "events=70077 horizon=0x40dd4c0000000000 non-sharing:989/0x4040bf3333333333/0x4024cfd571fd9967 sharing:2106/0x4051df5555555555/0x4018313eb16dd730"},
		{"no-exchange", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.PolicyNoExchange
			return cfg
		}, "events=72373 horizon=0x40dd4c0000000000 non-sharing:1632/0x404c873333333333/0x401ca62d7f5a8cc4 sharing:1464/0x404973bbbbbbbbbb/0x401c8ada00cccaea"},
		{"kazaa-whitewasher", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Policy = core.PolicyNoExchange
			cfg.Ranker = credit.NewKaZaA(nil)
			return cfg
		}, "events=56950 horizon=0x40dd4c0000000000 whitewasher:482/0x403ba9c71c71c71d/0x402f28738a39b49b non-sharing:282/0x402f9c71c71c71c7/0x40317627e3874786 sharing:1646/0x4051af5555555555/0x401307d56a497ebe"},
		{"emule", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Policy = core.PolicyNoExchange
			cfg.Ranker = credit.NewEMule()
			return cfg
		}, "events=59180 horizon=0x40dd4c0000000000 whitewasher:869/0x404930e38e38e38e/0x40219182a52c591c non-sharing:611/0x40416dc71c71c71d/0x4023834d2206eb52 sharing:1045/0x40466b5555555555/0x402007005859c66b"},
		{"exchange-whitewasher", func() Config {
			return adversaryConfig(strategy.Whitewasher(), 0.3)
		}, "events=58335 horizon=0x40dd4c0000000000 whitewasher:693/0x4043f238e38e38e3/0x4024626e1aa9d7ed non-sharing:602/0x4040f00000000000/0x4024aa53da9ebbea sharing:1217/0x4049b95555555555/0x401ce2dbcf1e4f4f"},
		{"retry-on-block-instant", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			cfg.RetryInterval = blockTime(cfg)
			return cfg
		}, "events=80950 horizon=0x40dd4c0000000000 non-sharing:1088/0x4042980000000000/0x4026d33dab24351d sharing:2043/0x4051ad999999999a/0x40178523477de288"},
		{"terminations-on-block-instants", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Ranker = credit.NewEMule()
			cfg.StorageMinObjects, cfg.StorageMaxObjects = 3, 5
			cfg.EvictionInterval = 4 * blockTime(cfg)
			cfg.WhitewashInterval = 24 * blockTime(cfg)
			cfg.RetryInterval = blockTime(cfg)
			return cfg
		}, "events=75185 horizon=0x40dd4c0000000000 whitewasher:145/0x4026f71c71c71c72/0x4014356ead4e1d00 non-sharing:299/0x4030ef1c71c71c72/0x401c0b21f72f98f0 sharing:1739/0x4052ef5555555555/0x4010f83a9624dcbc"},
	}
}
