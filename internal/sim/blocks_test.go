package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"barter/internal/core"
	"barter/internal/eventq"
	"barter/internal/strategy"
)

// replay is a session's arrival arithmetic, one float addition per arrival:
// what grid.count must reproduce exactly.
func replay(t, delay, limit float64, atLimit bool) (int, float64) {
	n := 0
	for t < limit || atLimit && t == limit {
		n++
		t += delay
	}
	return n, t
}

// TestGridCountMatchesReplay: counting arrivals a binade at a time gives the
// count and the next arrival that one addition per arrival gives, and
// stepping that many arrivals a binade at a time lands on the same one, for
// whole and fractional delays, fractional starts, limits on grid points and
// off them, across binade boundaries.
func TestGridCountMatchesReplay(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	delays := []float64{1, 25, 50, 3, 7, 1000, 0.5, 50.0 / 3, 166.66666666666666}
	for i := 0; i < 20000; i++ {
		delay := delays[r.Intn(len(delays))]
		g := newGrid(delay)
		start := r.Float64() * math.Ldexp(1, r.Intn(20))
		if r.Intn(4) == 0 {
			start = math.Trunc(start) // whole starts stay whole
		}
		steps := r.Intn(400)
		limit := start + float64(steps)*delay*r.Float64()*1.5
		if r.Intn(3) == 0 { // exactly on a grid point
			_, limit = replay(start, delay, start+float64(steps)*delay*0.7, false)
		}
		if r.Intn(5) == 0 { // exactly on a binade boundary
			_, e := math.Frexp(limit)
			limit = math.Ldexp(1, e)
		}
		for _, atLimit := range []bool{false, true} {
			wn, wt := replay(start, delay, limit, atLimit)
			gn, gt := g.count(start, limit, atLimit)
			if gn != wn || gt != wt {
				t.Fatalf("count(%v, %v, %v) with delay %v = %d, %v; replay %d, %v", start, limit, atLimit, delay, gn, gt, wn, wt)
			}
			if st := g.step(start, wn); st != wt {
				t.Fatalf("step(%v, %d) with delay %v = %v; replay %v", start, wn, delay, st, wt)
			}
		}
	}
}

// TestFileDueMatchesReplay is the property behind fileDue: for feeders whose
// credited cursors lag the clock or sit on it, and new feeders one block
// time out (ties and binade crossings included), the filed instant is the
// m-th arrival of the feeders' grids merged by replay, after crediting every
// arrival at or before now, or now itself if those make the download whole.
func TestFileDueMatchesReplay(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		delay := []float64{1, 50, 7, 0.5, 50.0 / 3}[r.Intn(5)]
		g := newGrid(delay)
		now := r.Float64() * math.Ldexp(1, r.Intn(22))
		if r.Intn(3) == 0 { // a binade boundary within a few block times
			now = math.Ldexp(1, r.Intn(22)) - float64(r.Intn(6))*delay*r.Float64()
		}
		now = math.Max(now, 0)
		blocks := 1 + r.Intn(400)
		s := &Sim{
			cfg:  Config{BlockKbits: 1, ObjectKbits: float64(blocks)},
			q:    eventq.New(),
			grid: g,
			col:  newCollector(0, strategy.LegacyMix(0.5)),
		}
		s.q.AdvanceTo(now)
		dl := &download{dueAt: -1, receivedKbits: float64(r.Intn(blocks))}
		var cursors []float64
		for f := 1 + r.Intn(5); f > 0; f-- {
			next := now + delay // a feeder started now
			switch r.Intn(4) {
			case 0: // lagging by up to a few dozen block times
				next = math.Max(0, now-delay*float64(r.Intn(40))-delay*r.Float64())
			case 1: // on the clock
				next = now
			case 2: // tied with an earlier feeder
				if len(cursors) > 0 {
					next = cursors[r.Intn(len(cursors))]
				}
			}
			cursors = append(cursors, next)
			dl.sessions = append(dl.sessions, &session{dl: dl, next: next})
		}
		received, next := dl.receivedKbits, slices.Clone(cursors)
		for j := range next {
			n, after := g.count(next[j], now, true)
			received, next[j] = received+float64(n), after
		}
		s.fileDue(dl)
		want := now // whole by now: it completes in its turn at now
		if received < float64(blocks) {
			want = s.mergedArrival(next, s.needed(received))
		}
		if got := s.dues.min(); got != want {
			t.Fatalf("delay %v, now %v, cursors %v, %v of %d blocks: filed at %v, replay %v", delay, now, cursors, dl.receivedKbits, blocks, got, want)
		}
	}
}

// runEager is the reference the counted engine is held to: before every
// completion and every heap event it credits every open session block by
// block through that instant, and it files due instants by replaying the
// merged arrivals (eager).
func runEager(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.eager = true
	for {
		at := min(s.dues.min(), s.q.Next())
		if at > cfg.Duration {
			break
		}
		for _, p := range s.peers {
			for _, up := range p.uploads {
				s.creditUntil(up, at)
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
// huge objects and on one of fractional blocks (which the counted run also
// credits block by block), counts, block accounting and per-ring-size
// session statistics are identical.
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
