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
// the counts below were captured on the commit before the event queue gained
// its fixed-delay lane and peer membership became dense, and every later
// engine optimization must reproduce them exactly (the emule row was captured
// on the commit before the credit books became dense tables). A deliberate
// behavior change re-captures them in the same commit and says why.
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
		}, "events=62924 searches=29003 nodes=1465825 wants=5582294 rings=3428 completed=non-sharing:1158,sharing:1688"},
		{"2-5-way", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			return cfg
		}, "events=67074 searches=28085 nodes=183583 wants=664258 rings=4491 completed=non-sharing:926,sharing:2084"},
		{"no-exchange", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.PolicyNoExchange
			return cfg
		}, "events=66293 searches=0 nodes=0 wants=0 rings=0 completed=non-sharing:1445,sharing:1458"},
		{"kazaa-whitewasher", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Policy = core.PolicyNoExchange
			cfg.Ranker = credit.NewKaZaA(nil)
			return cfg
		}, "events=56569 searches=0 nodes=0 wants=0 rings=0 completed=whitewasher:512,non-sharing:545,sharing:1404"},
		{"emule", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Policy = core.PolicyNoExchange
			cfg.Ranker = credit.NewEMule()
			return cfg
		}, "events=56999 searches=0 nodes=0 wants=0 rings=0 completed=whitewasher:895,non-sharing:623,sharing:953"},
		// Ring searches while peers depart: whitewashers disconnect and
		// rejoin mid-run, so searches walk IRQs their departures just
		// changed. The one row that tells "a departing peer's requests are
		// withdrawn before anything searches" from merely "offline
		// requesters are skipped". Captured before the withdrawal ordering
		// replaced the per-read liveness re-check.
		{"exchange-whitewasher", func() Config {
			return adversaryConfig(strategy.Whitewasher(), 0.3)
		}, "events=56533 searches=19922 nodes=115164 wants=411911 rings=2863 completed=whitewasher:545,non-sharing:476,sharing:1463"},
		// Retries land exactly one block time after the event that armed
		// them, so a heap event regularly falls on the instant of a block
		// run still being appended to: the case the lane's closing rule
		// exists for. Captured before block arrivals fired as runs.
		{"retry-on-block-instant", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			cfg.RetryInterval = cfg.BlockKbits / cfg.SlotKbps
			return cfg
		}, "events=74425 searches=27398 nodes=189133 wants=767721 rings=4165 completed=non-sharing:1139,sharing:1907"},
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
// Captured before the collector kept its per-ring-size tallies in a slice.
func TestPinnedSessionStats(t *testing.T) {
	cases := []struct {
		name string
		pol  core.Policy
		want string
	}{
		{"5-2-way", core.PolicyN2,
			"count: 3-way=1053 4-way=1196 5-way=6645 non-exchange=8939 pairwise=1088" +
				"\nvolume: 5-way=6645/0x40464655240564be non-exchange=8939/0x405778b9ce91e281 pairwise=1088/0x405fb3cf0f0f0f0f 3-way=1053/0x4054f3b902ac9c91 4-way=1196/0x404b9e3beee05232" +
				"\nwaiting: 5-way=6645/0x400b7ca1090dad12 non-exchange=8939/0x401fcec8b5b3c2b3 pairwise=1088/0x400633ebebebebe7 3-way=1053/0x40071bcbcfb37fea 4-way=1196/0x4007b6a73dee4e2c"},
		{"2-5-way", core.Policy2N,
			"count: 3-way=1344 4-way=144 5-way=15 non-exchange=7412 pairwise=5788" +
				"\nvolume: non-exchange=7412/0x40578afbb79b6c73 pairwise=5788/0x405d37f5628b0eaf 3-way=1344/0x405684e186186186 5-way=15/0x404c200000000000 4-way=144/0x40575438e38e38e4" +
				"\nwaiting: non-exchange=7412/0x402a20622de50ea3 pairwise=5788/0x4008bc42d235432e 3-way=1344/0x400b4caab46c36c5 5-way=15/0x400bcf4a61e3d16b 4-way=144/0x400f97135cf4fc9c"},
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
// between blocks. Captured on the commit before block arrivals were
// credited when read instead of when fired.
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
		}, "events=62924 horizon=0x40dd4c0000000000 non-sharing:1158/0x404352aaaaaaaaab/0x4026da622d34315d sharing:1688/0x404c1bbbbbbbbbbb/0x401a5e3b0bba7067"},
		{"2-5-way", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			return cfg
		}, "events=67074 horizon=0x40dd4c0000000000 non-sharing:926/0x403ed77777777778/0x402ea1925ffcb2a0 sharing:2084/0x40515c0000000000/0x401b4187857e57c3"},
		{"no-exchange", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.PolicyNoExchange
			return cfg
		}, "events=66293 horizon=0x40dd4c0000000000 non-sharing:1445/0x4048080000000000/0x4014739995753309 sharing:1458/0x4048537777777778/0x4014743830521621"},
		{"kazaa-whitewasher", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Policy = core.PolicyNoExchange
			cfg.Ranker = credit.NewKaZaA(nil)
			return cfg
		}, "events=56569 horizon=0x40dd4c0000000000 whitewasher:512/0x403d0aaaaaaaaaab/0x4029b3d931387fa9 non-sharing:545/0x403e380000000000/0x402c9f82e28c19dc sharing:1404/0x404d315555555555/0x4011313586bc5f00"},
		{"emule", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Policy = core.PolicyNoExchange
			cfg.Ranker = credit.NewEMule()
			return cfg
		}, "events=56999 horizon=0x40dd4c0000000000 whitewasher:895/0x4049631c71c71c72/0x40201f5a3c05fb6e non-sharing:623/0x4041571c71c71c72/0x40218a710f49ec0d sharing:953/0x4043dcaaaaaaaaab/0x401f72b960c34392"},
		{"exchange-whitewasher", func() Config {
			return adversaryConfig(strategy.Whitewasher(), 0.3)
		}, "events=56533 horizon=0x40dd4c0000000000 whitewasher:545/0x403ef471c71c71c7/0x402b1a4ee2cabea3 non-sharing:476/0x403a5e38e38e38e3/0x402ab9575c37c538 sharing:1463/0x404e630000000000/0x4020cf731c3f2c40"},
		{"retry-on-block-instant", func() Config {
			cfg := testConfig()
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			cfg.RetryInterval = blockTime(cfg)
			return cfg
		}, "events=74425 horizon=0x40dd4c0000000000 non-sharing:1139/0x4042fd1111111111/0x402c614d852a045e sharing:1907/0x404fb91111111111/0x401cc2d64be321f0"},
		{"terminations-on-block-instants", func() Config {
			cfg := adversaryConfig(strategy.Whitewasher(), 0.3)
			cfg.Ranker = credit.NewEMule()
			cfg.StorageMinObjects, cfg.StorageMaxObjects = 3, 5
			cfg.EvictionInterval = 4 * blockTime(cfg)
			cfg.WhitewashInterval = 24 * blockTime(cfg)
			cfg.RetryInterval = blockTime(cfg)
			return cfg
		}, "events=75492 horizon=0x40dd4c0000000000 whitewasher:126/0x4022c71c71c71c72/0x40154e6a92a23d55 non-sharing:406/0x40366e38e38e38e3/0x401bf6d9617acb10 sharing:1624/0x4050ee5555555555/0x40108c5bb3517073"},
	}
}
