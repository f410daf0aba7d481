// Package credit implements the related-work incentive baselines the paper
// compares against conceptually (Section II): the eMule pairwise credit
// system and the KaZaA-style self-reported participation level. Both plug
// into the simulator's non-exchange service order (sim.Ranker), so the
// ablation experiments can quantify how much weaker their incentives are
// than exchange priority.
//
// Both mechanisms keep their books in tables indexed by core.PeerID and grown
// on demand: OnTransfer runs once per delivered block, so it has to be an
// indexed add rather than a hash. The contract the tables rely on is that peer
// ids are small, dense and non-negative, as the simulator's 0..N-1 are — a
// table is as large as the largest id it has seen (eMule's up to its square), and
// a negative id panics.
package credit

import (
	"math"

	"barter/internal/core"
)

// grown returns s extended with zero values until index i is valid.
func grown[T any](s []T, i core.PeerID) []T {
	if int(i) < len(s) {
		return s
	}
	return append(s, make([]T, int(i)+1-len(s))...)
}

// EMule reproduces the eMule upload-queue rank: a request's score is its
// waiting time multiplied by a credit modifier derived from the pairwise
// transfer history between the two peers. Following the eMule credit rules,
// the modifier is min(2*uploaded/downloaded, sqrt(uploadedMB+2)), clamped to
// [1, 10], where "uploaded" is what the requester previously uploaded to the
// serving peer. With no download history the modifier is 10 when the
// requester has uploaded anything, else 1.
type EMule struct {
	// kbits[src][dst] is what src has uploaded to dst. Rows grow on first
	// use, so a missing row or a short one reads as no history.
	kbits [][]float64
}

// NewEMule returns an empty credit book.
func NewEMule() *EMule {
	return &EMule{}
}

// Score implements sim.Ranker.
func (e *EMule) Score(server, requester core.PeerID, waited float64) float64 {
	up := e.Credit(requester, server)   // requester -> server
	down := e.Credit(server, requester) // server -> requester
	modifier := 1.0
	switch {
	case up == 0:
		modifier = 1
	case down == 0:
		modifier = 10
	default:
		r1 := 2 * up / down
		r2 := math.Sqrt(up/8000 + 2) // kbits -> MB
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

// OnTransfer implements sim.Ranker.
func (e *EMule) OnTransfer(src, dst core.PeerID, kbits float64) {
	e.kbits = grown(e.kbits, src)
	row := grown(e.kbits[src], dst)
	row[dst] += kbits
	e.kbits[src] = row
}

// Credit returns the kbits src has uploaded to dst (exported for tests and
// the creditcompare example).
func (e *EMule) Credit(src, dst core.PeerID) float64 {
	if int(src) < len(e.kbits) {
		if row := e.kbits[src]; int(dst) < len(row) {
			return row[dst]
		}
	}
	return 0
}

// OnWhitewash implements sim.WhitewashResetter: a peer that rejoined under a
// fresh identity carries no pairwise history in either direction.
func (e *EMule) OnWhitewash(p core.PeerID) {
	if int(p) < len(e.kbits) {
		clear(e.kbits[p]) // row p: everything p uploaded
	}
	for _, row := range e.kbits {
		if int(p) < len(row) {
			row[p] = 0 // column p: everything p downloaded
		}
	}
}

// KaZaA reproduces the self-reported "participation level" mechanism: each
// peer announces a level computed from its claimed upload/download volumes,
// and servers prioritize higher levels. Because the level is self-reported,
// a trivially modified client can claim the maximum; Cheater marks peers
// that do so (the paper cites exactly this hack as the reason the scheme
// fails).
type KaZaA struct {
	// volumes[p] is what p has uploaded and downloaded, in kbits; a peer
	// beyond the table has no history.
	volumes []volume
	cheater func(core.PeerID) bool
}

type volume struct{ up, down float64 }

// MaxLevel is the cap of the participation level scale (KaZaA used 0-1000).
const MaxLevel = 1000.0

// NewKaZaA builds the mechanism. cheater reports whether a peer misreports
// its level as MaxLevel; nil means everyone is honest.
func NewKaZaA(cheater func(core.PeerID) bool) *KaZaA {
	if cheater == nil {
		cheater = func(core.PeerID) bool { return false }
	}
	return &KaZaA{cheater: cheater}
}

// Level returns the participation level a peer announces: honest peers
// report 100 * uploaded/downloaded (clamped to MaxLevel, 100 with no
// history, the KaZaA formula); cheaters always report MaxLevel.
func (k *KaZaA) Level(p core.PeerID) float64 {
	if k.cheater(p) {
		return MaxLevel
	}
	var v volume
	if int(p) < len(k.volumes) {
		v = k.volumes[p]
	}
	up, down := v.up, v.down
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

// Score implements sim.Ranker: participation level dominates, with waiting
// time only breaking ties.
func (k *KaZaA) Score(_, requester core.PeerID, waited float64) float64 {
	return k.Level(requester)*1e6 + waited
}

// OnTransfer implements sim.Ranker.
func (k *KaZaA) OnTransfer(src, dst core.PeerID, kbits float64) {
	k.volumes = grown(k.volumes, max(src, dst))
	k.volumes[src].up += kbits
	k.volumes[dst].down += kbits
}

// OnWhitewash implements sim.WhitewashResetter: a whitewashed peer's
// participation history vanishes, restoring the newcomer's default level —
// exactly the escape hatch self-reported schemes cannot close.
func (k *KaZaA) OnWhitewash(p core.PeerID) {
	if int(p) < len(k.volumes) {
		k.volumes[p] = volume{}
	}
}
