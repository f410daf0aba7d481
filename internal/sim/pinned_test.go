package sim

import (
	"fmt"
	"strings"
	"testing"

	"barter/internal/core"
	"barter/internal/credit"
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
