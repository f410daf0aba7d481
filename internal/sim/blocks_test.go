package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"barter/internal/core"
	"barter/internal/eventq"
	"barter/internal/strategy"
)

// TestFileDueMatchesReplay is the property behind fileDue: for a download
// short at now, fed by feeders credited up to some block and lagging the
// clock by up to a few dozen block times, or started at it (so their first
// block is a block time out), with block times that are whole seconds, a
// fraction of one and a nanosecond short of one, the filed instant is the
// arrival that makes the download whole on the feeders' grids merged by
// replay, after crediting every arrival at or before now.
func TestFileDueMatchesReplay(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		delta := []time.Duration{time.Second, 50 * time.Second, 3276800 * time.Microsecond, time.Second - 1, 7}[r.Intn(5)]
		now := time.Duration(r.Int63n(1 << 52))
		if r.Intn(3) == 0 { // near the 2^53 ns bound
			now = 1<<53 - 1 - time.Duration(r.Intn(40))*delta
		}
		blocks := 1 + r.Intn(400)
		s := &Sim{
			cfg:       Config{BlockKbits: 1, ObjectKbits: float64(blocks)},
			q:         eventq.New(),
			delta:     delta,
			objBlocks: blocks,
			col:       newCollector(0, strategy.LegacyMix(0.5), 1),
		}
		s.q.AdvanceTo(float64(now))
		dl := &download{dueAt: -1}
		uncredited := 0
		var next []time.Duration
		for f := 1 + r.Intn(5); f > 0; f-- {
			start := now // a feeder started now
			if r.Intn(4) != 0 {
				start = max(0, now-delta*time.Duration(r.Intn(40))-time.Duration(r.Int63n(int64(delta))))
			}
			delivered := 0
			for start+time.Duration(delivered+1)*delta <= now {
				delivered++
			}
			sent := r.Intn(delivered + 1)
			uncredited += delivered - sent
			next = append(next, start+time.Duration(delivered+1)*delta)
			dl.sessions = append(dl.sessions, &session{dl: dl, startAt: start, sent: sent})
		}
		if uncredited >= blocks {
			continue // whole by now: completeDue takes it out of pending first
		}
		dl.received = r.Intn(blocks - uncredited)
		received := dl.received + uncredited
		cursors := slices.Clone(next)
		s.fileDue(dl)
		if got, want := s.dues[0].due, s.mergedArrival(next, blocks-received); got != want {
			t.Fatalf("delta %v, now %v, next arrivals %v, %d of %d blocks: filed at %v, replay %v", delta, now, cursors, received, blocks, got, want)
		}
	}
}

// runEager is the reference the counted engine is held to: before every
// completion and every heap event it credits every open session block by
// block through that instant.
func runEager(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for {
		at := s.q.Next()
		if len(s.dues) > 0 {
			at = min(at, float64(s.dues[0].due))
		}
		if at > float64(dur(cfg.Duration)) {
			break
		}
		for _, p := range s.peers {
			for _, up := range p.uploads {
				for k := up.sent + 1; up.startAt+time.Duration(k)*s.delta <= time.Duration(at); k++ {
					s.creditUntil(up, up.startAt+time.Duration(k)*s.delta)
				}
			}
		}
		s.Step()
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// paperScale is the 200-peer world of the paper-scale figures over a
// shortened horizon: big runs of block arrivals that one moved batch can
// land on top of, which the 30-peer world never has.
func paperScale(ul float64, pol core.Policy, duration float64) Config {
	cfg := DefaultConfig()
	cfg.Catalog.Categories = 50
	cfg.Catalog.ObjectsPerCategoryMax = 100
	cfg.UploadKbps = ul
	cfg.Policy = pol
	cfg.Duration = duration
	return cfg
}

// hugeObjects is a six-peer world of objects over 2^20 blocks of one block
// time each, whose grids run past 3·2^20 block times; ten downloads
// complete at seed 1.
func hugeObjects() Config {
	cfg := testConfig()
	cfg.NumPeers = 6
	cfg.Catalog.Categories = 2
	cfg.Catalog.ObjectsPerCategoryMin, cfg.Catalog.ObjectsPerCategoryMax = 2, 3
	cfg.Catalog.CategoriesPerPeerMin, cfg.Catalog.CategoriesPerPeerMax = 1, 2
	cfg.StorageMinObjects, cfg.StorageMaxObjects = 1, 2
	cfg.SlotKbps, cfg.UploadKbps, cfg.DownloadKbps = 10, 20, 30
	cfg.BlockKbits = 10
	cfg.ObjectKbits = 10 * (1<<20 + 7)
	cfg.Duration = 3 << 20
	return cfg
}

// TestLazyMatchesEager holds the counted run to the eager one (runEager):
// on every TestPinnedAccounting world, on two paper-scale ones, on one of
// huge objects, on one of fractional blocks and on one of the live swarm's
// 4 KiB blocks (32.768 kbit, a block time of 3.2768 s), counts, block
// accounting and per-ring-size session statistics are identical.
func TestLazyMatchesEager(t *testing.T) {
	cases := accountingCases()
	cases = append(cases,
		accountingCase{name: "paper-no-exchange", cfg: func() Config { return paperScale(140, core.PolicyNoExchange, 60_000) }},
		accountingCase{name: "paper-2-5-way", cfg: func() Config { return paperScale(40, core.Policy2N, 25_000) }},
		accountingCase{name: "over-2^20-blocks", cfg: hugeObjects},
		accountingCase{name: "fractional-blocks", cfg: func() Config {
			cfg := testConfig()
			cfg.BlockKbits = 250.5
			cfg.Duration = 5_000
			return cfg
		}},
		accountingCase{name: "swarm-blocks", cfg: func() Config {
			cfg := testConfig()
			cfg.BlockKbits = 32.768
			cfg.Duration = 5_000
			return cfg
		}},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(run func(*testing.T, Config) *Result) *Result {
				cfg := tc.cfg() // a ranker keeps books: one per run
				cfg.Seed = 1
				return run(t, cfg)
			}
			lazy, eager := run(runOne), run(runEager)
			for _, render := range []func(*Result) string{pinnedCounts, pinnedAccounting, pinnedSessions} {
				if got, want := render(lazy), render(eager); got != want {
					t.Fatalf("counted run differs from the eager one:\n got  %s\n want %s", got, want)
				}
			}
		})
	}
}
