package credit

import (
	"math"
	"testing"

	"barter/internal/core"
	"barter/internal/rng"
)

func TestEMuleNoHistoryScoresByWaiting(t *testing.T) {
	e := NewEMule()
	if got := e.Score(1, 2, 100); got != 100 {
		t.Fatalf("Score with no history = %v, want 100 (waiting only)", got)
	}
}

func TestEMuleUploaderOutranksStranger(t *testing.T) {
	e := NewEMule()
	e.OnTransfer(2, 1, 80_000) // peer 2 uploaded 10 MB to peer 1
	uploader := e.Score(1, 2, 100)
	stranger := e.Score(1, 3, 100)
	if uploader <= stranger {
		t.Fatalf("uploader score %v not above stranger %v", uploader, stranger)
	}
}

func TestEMuleModifierClamped(t *testing.T) {
	e := NewEMule()
	// Massive one-way upload history: modifier must cap at 10.
	e.OnTransfer(2, 1, 8_000_000)
	e.OnTransfer(1, 2, 1)
	if got, want := e.Score(1, 2, 1), 10.0; got > want {
		t.Fatalf("modifier exceeded clamp: score %v with waited=1", got)
	}
	// Heavy downloader with no uploads: modifier must floor at 1.
	f := NewEMule()
	f.OnTransfer(1, 2, 8_000_000)
	if got := f.Score(1, 2, 50); got != 50 {
		t.Fatalf("freeloader score %v, want waiting-only 50", got)
	}
}

func TestEMuleBalancedHistory(t *testing.T) {
	e := NewEMule()
	e.OnTransfer(2, 1, 16_000) // 2 MB up
	e.OnTransfer(1, 2, 16_000) // 2 MB down
	// ratio1 = 2, ratio2 = sqrt(4) = 2 -> modifier 2.
	if got := e.Score(1, 2, 10); got != 20 {
		t.Fatalf("balanced score = %v, want 20", got)
	}
}

func TestEMuleCreditAccessor(t *testing.T) {
	e := NewEMule()
	e.OnTransfer(4, 5, 123)
	if e.Credit(4, 5) != 123 {
		t.Fatal("Credit accessor wrong")
	}
	if e.Credit(5, 4) != 0 {
		t.Fatal("Credit direction confused")
	}
}

func TestKaZaAHonestLevels(t *testing.T) {
	k := NewKaZaA(nil)
	if k.Level(1) != 100 {
		t.Fatalf("fresh peer level = %v, want 100", k.Level(1))
	}
	k.OnTransfer(1, 9, 1000) // peer 1 uploads
	k.OnTransfer(9, 1, 500)  // peer 1 downloads half as much
	if got := k.Level(1); got != 200 {
		t.Fatalf("2:1 ratio level = %v, want 200", got)
	}
}

func TestKaZaALevelClamped(t *testing.T) {
	k := NewKaZaA(nil)
	k.OnTransfer(1, 9, 1e9)
	k.OnTransfer(9, 1, 1)
	if got := k.Level(1); got != MaxLevel {
		t.Fatalf("level = %v, want clamp %v", got, MaxLevel)
	}
}

func TestKaZaACheaterAlwaysMax(t *testing.T) {
	k := NewKaZaA(func(p core.PeerID) bool { return p == 7 })
	k.OnTransfer(9, 7, 1e9) // peer 7 is a pure leech
	if k.Level(7) != MaxLevel {
		t.Fatalf("cheater level = %v, want %v", k.Level(7), MaxLevel)
	}
	// The cheat defeats the mechanism: the leech outranks an honest
	// contributor with a merely good ratio.
	k.OnTransfer(3, 9, 2000)
	k.OnTransfer(9, 3, 1000)
	if k.Score(9, 7, 0) <= k.Score(9, 3, 1e5) {
		t.Fatal("cheating leech did not outrank honest contributor")
	}
}

func TestKaZaAUploaderWithNoDownloads(t *testing.T) {
	k := NewKaZaA(nil)
	k.OnTransfer(2, 9, 10)
	if k.Level(2) != MaxLevel {
		t.Fatalf("pure uploader level = %v, want %v", k.Level(2), MaxLevel)
	}
}

// refEMule and refKaZaA are the hash-map books the dense tables replaced,
// kept verbatim as the reference model: a map has no notion of table size, so
// agreement with it is agreement on every growth and out-of-table path.

type pair struct {
	src, dst core.PeerID
}

type refEMule struct {
	kbits map[pair]float64
}

func (e *refEMule) Score(server, requester core.PeerID, waited float64) float64 {
	up := e.kbits[pair{src: requester, dst: server}]
	down := e.kbits[pair{src: server, dst: requester}]
	modifier := 1.0
	switch {
	case up == 0:
		modifier = 1
	case down == 0:
		modifier = 10
	default:
		r1 := 2 * up / down
		r2 := math.Sqrt(up/8000 + 2)
		modifier = math.Min(r1, r2)
		if modifier < 1 {
			modifier = 1
		}
		if modifier > 10 {
			modifier = 10
		}
	}
	return waited * modifier
}

func (e *refEMule) OnTransfer(src, dst core.PeerID, kbits float64) {
	e.kbits[pair{src: src, dst: dst}] += kbits
}

func (e *refEMule) Credit(src, dst core.PeerID) float64 {
	return e.kbits[pair{src: src, dst: dst}]
}

func (e *refEMule) OnWhitewash(p core.PeerID) {
	for k := range e.kbits {
		if k.src == p || k.dst == p {
			delete(e.kbits, k)
		}
	}
}

type refKaZaA struct {
	uploaded   map[core.PeerID]float64
	downloaded map[core.PeerID]float64
	cheater    func(core.PeerID) bool
}

func (k *refKaZaA) Level(p core.PeerID) float64 {
	if k.cheater(p) {
		return MaxLevel
	}
	up, down := k.uploaded[p], k.downloaded[p]
	if down == 0 {
		if up > 0 {
			return MaxLevel
		}
		return 100
	}
	level := 100 * up / down
	if level > MaxLevel {
		level = MaxLevel
	}
	return level
}

func (k *refKaZaA) Score(_, requester core.PeerID, waited float64) float64 {
	return k.Level(requester)*1e6 + waited
}

func (k *refKaZaA) OnTransfer(src, dst core.PeerID, kbits float64) {
	k.uploaded[src] += kbits
	k.downloaded[dst] += kbits
}

func (k *refKaZaA) OnWhitewash(p core.PeerID) {
	delete(k.uploaded, p)
	delete(k.downloaded, p)
}

// refMaxID is the largest id the random sequences draw: far beyond the few
// dozen ids most operations touch, so tables and rows grow mid-sequence and
// most reads land beyond them.
const refMaxID = 5000

// refDraws is the shared input of one reference run: ids that are mostly
// small with a tail up to refMaxID, and volumes spread over nine decades so a
// sum depends on the order of its additions.
type refDraws struct{ r *rng.RNG }

func (d refDraws) id() core.PeerID {
	switch u := d.r.Intn(100); {
	case u < 80:
		return core.PeerID(d.r.Intn(48))
	case u < 95:
		return core.PeerID(d.r.Intn(600))
	default:
		return core.PeerID(d.r.Intn(refMaxID + 1))
	}
}

func (d refDraws) kbits() float64 {
	return d.r.Float64() * math.Pow(10, float64(d.r.IntRange(-3, 5)))
}

func sameBits(t *testing.T, step int, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: %s = %v (%#x), reference %v (%#x)", step, what,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// book is the write side both mechanisms and both references share.
type book interface {
	OnTransfer(src, dst core.PeerID, kbits float64)
	OnWhitewash(p core.PeerID)
}

// replay drives got and ref through one seeded sequence of transfers and
// whitewashes, calling check on the pair of ids every step touched: first on
// an empty book (reads before any transfer, the whitewash of an id never
// seen), then after each of 6,000 random operations.
func replay(d refDraws, got, ref book, check func(step int, a, b core.PeerID)) {
	check(0, 1, 2)
	check(0, refMaxID, 0)
	got.OnWhitewash(refMaxID)
	ref.OnWhitewash(refMaxID)
	for step := 1; step <= 6000; step++ {
		a, b := d.id(), d.id()
		switch u := d.r.Intn(100); {
		case u < 60:
			kb := d.kbits()
			got.OnTransfer(a, b, kb)
			ref.OnTransfer(a, b, kb)
		case u < 70:
			got.OnWhitewash(a)
			ref.OnWhitewash(a)
		}
		check(step, a, b)
	}
}

func TestEMuleMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		d := refDraws{rng.New(seed)}
		got, ref := NewEMule(), &refEMule{kbits: make(map[pair]float64)}
		check := func(step int, a, b core.PeerID) {
			t.Helper()
			waited := d.r.Float64() * 3600
			sameBits(t, step, "Score", got.Score(a, b, waited), ref.Score(a, b, waited))
			sameBits(t, step, "Credit", got.Credit(a, b), ref.Credit(a, b))
			sameBits(t, step, "Credit reversed", got.Credit(b, a), ref.Credit(b, a))
		}
		replay(d, got, ref, check)
		// Every pair the reference still holds, and the pairs around it.
		for k, want := range ref.kbits {
			sameBits(t, -1, "final Credit", got.Credit(k.src, k.dst), want)
		}
		for a := core.PeerID(0); a < 64; a++ {
			for b := core.PeerID(0); b < 64; b++ {
				check(-1, a, b)
			}
		}
	}
}

func TestKaZaAMatchesMapReference(t *testing.T) {
	cheater := func(p core.PeerID) bool { return p%7 == 3 }
	for seed := uint64(1); seed <= 8; seed++ {
		d := refDraws{rng.New(seed)}
		got := NewKaZaA(cheater)
		ref := &refKaZaA{
			uploaded:   make(map[core.PeerID]float64),
			downloaded: make(map[core.PeerID]float64),
			cheater:    cheater,
		}
		check := func(step int, p core.PeerID) {
			t.Helper()
			waited := d.r.Float64() * 3600
			sameBits(t, step, "Level", got.Level(p), ref.Level(p))
			sameBits(t, step, "Score", got.Score(0, p, waited), ref.Score(0, p, waited))
		}
		replay(d, got, ref, func(step int, a, b core.PeerID) {
			t.Helper()
			check(step, a)
			check(step, b)
		})
		for p := core.PeerID(0); p <= refMaxID; p++ {
			check(-1, p)
		}
	}
}
