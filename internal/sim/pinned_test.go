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
