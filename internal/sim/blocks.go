package sim

import (
	"math"
	"slices"
)

// Block accounting. An arrival is counted, not fired: a block changes only
// the session's sent, its download's receivedKbits, the collector's window
// volume, the ranker's books and the event count, so those are brought up
// to date when something reads them. A session's arrivals lie on the lane's
// grid — the first a block time after it starts, each next a block time
// after the last, by the lane's own float addition — so session.next says
// which have been credited, and the clock which have arrived.
//
// The tie rule: an arrival due now has arrived iff Lane.PendingNow no longer
// holds its entry. The readers are a terminating session, a completing
// download's other feeders, pickWaiting's Score (the server's and the
// requester's open sessions: Ranker's contract), fileDue and the horizon.
// OnWhitewash follows a departure that ended, and so credited, every
// session of the peer.
//
// The lane walks only runs at which a download is due: every download with
// a feeder sits in the due heap under the exact instant its feeders' merged
// arrivals reach ObjectKbits (fileDue), and the lane moves every run before
// the earliest one whole. A walk fires only the arrivals of the downloads
// due now (passOver).
//
// Counting in bulk is exact while every sum of blocks is, which a whole
// BlockKbits keeps. Other configurations walk every run and credit each
// block as it fires.

// deadShare bounds the lane's dead entries to 1/deadShare of its live ones.
// On the paper-scale fig4 slice without exchanges, 1/4 moves 1.7 % more
// runs than there are instants with a live arrival, and compaction visits
// one entry per seventy arrivals; 1/16 moves 0.4 % more but visits one per
// twenty, and three times as many on the ring slice.
const deadShare = 4

// lazyBlocks reports whether cfg's block arithmetic is exact in bulk.
func lazyBlocks(cfg Config) bool { return cfg.BlockKbits == math.Trunc(cfg.BlockKbits) }

// credit brings sess up to now: every arrival before it, and the one at it
// if the tie rule says it arrived.
func (s *Sim) credit(sess *session) {
	now := s.q.Now()
	if sess.next > now {
		return
	}
	s.creditUntil(sess, now, false)
	if sess.next == now && !s.arrivalPending(sess) {
		s.creditUntil(sess, now, true)
	}
}

// arrivalPending reports whether sess's lane entry is due now, unfired.
func (s *Sim) arrivalPending(sess *session) bool {
	a := arrival{id: sess.id, gen: sess.gen}
	return s.blocks.PendingNow(func(v arrival) bool { return v == a })
}

// creditUntil credits sess with its arrivals before limit, and the one at
// limit if atLimit: to its sent and download, to the collector (those at or
// after the warm-up instant), to the ranker and to the event count.
func (s *Sim) creditUntil(sess *session, limit float64, atLimit bool) {
	n, next := s.grid.count(sess.next, limit, atLimit)
	if n == 0 {
		return
	}
	window := n
	if warm := s.col.warmupAt; sess.next < warm {
		early, _ := s.grid.count(sess.next, warm, false)
		window -= min(early, n)
	}
	sess.next = next
	kbits := float64(n) * s.cfg.BlockKbits
	sess.sent += kbits
	sess.dl.receivedKbits += kbits
	if window > 0 { // the window's blocks are the last, all by limit
		s.col.blockReceived(limit, sess.dstClass, float64(window)*s.cfg.BlockKbits)
	}
	if s.cfg.Ranker != nil {
		s.cfg.Ranker.OnTransfer(sess.src, sess.dst, kbits)
	}
	s.arrived += uint64(n)
}

// creditPeer credits every open session p uploads or downloads.
func (s *Sim) creditPeer(p *peerState) {
	for _, sess := range p.uploads {
		s.credit(sess)
	}
	for _, sess := range p.downloads {
		s.credit(sess)
	}
}

// retireArrival does a terminated session's lane upkeep: its entry is dead,
// and passed over or moved it would go round forever, so past deadShare the
// lane drops every dead entry.
func (s *Sim) retireArrival() {
	s.open--
	if deadShare*(s.blocks.Len()-s.open) > s.open {
		s.blocks.Compact(s.liveArrival)
	}
}

func (s *Sim) liveArrival(a arrival) bool { return a.gen == s.sessions[a.id].gen }

// passOver is the lane's pass: a walk fires the live arrivals of the
// downloads due now and carries the rest over, as a moved run would; a dead
// arrival fires, which drops it. While an instant is walked its due set only
// shrinks: a feeder that ends makes its download due later, and a new
// feeder's first arrival is a block time away.
func (s *Sim) passOver(a arrival) bool {
	sess := s.sessions[a.id]
	return sess.gen == a.gen && s.dues[sess.dl.dueAt].due > s.q.Now()
}

// needed returns the least m >= 1 with received + m·BlockKbits >=
// ObjectKbits.
func (s *Sim) needed(received float64) int {
	b, obj := s.cfg.BlockKbits, s.cfg.ObjectKbits
	m := max(1, int(math.Ceil((obj-received)/b)))
	for m > 1 && received+float64(m-1)*b >= obj {
		m--
	}
	for received+float64(m)*b < obj {
		m++
	}
	return m
}

// fileDue files dl in the due heap under the exact instant it completes at,
// after its feeders changed, or takes it out when it has none or is done.
// Each feeder is credited with its arrivals before now, so the next ones
// all lie in [now, now+Δ] (a new feeder's is now+Δ), and since float
// addition is monotone their grids interleave in that order from then on:
// the m-th merged arrival is the ((m−1) mod f)-th of them, advanced
// (m−1)/f block times.
func (s *Sim) fileDue(dl *download) {
	if dl.done || len(dl.sessions) == 0 {
		if dl.dueAt >= 0 {
			s.dues.remove(dl)
			s.moveBefore()
		}
		return
	}
	now := s.q.Now()
	next := s.nextScratch[:0]
	for _, f := range dl.sessions {
		s.creditUntil(f, now, false)
		next = append(next, f.next)
	}
	slices.Sort(next)
	s.nextScratch = next
	m := s.needed(dl.receivedKbits) - 1
	s.dues.set(dl, s.grid.step(next[m%len(next)], m/len(next)))
	s.moveBefore()
}

// moveBefore tells the lane that no run before the earliest due instant
// needs walking; an eager run walks them all.
func (s *Sim) moveBefore() {
	if !s.eager {
		s.blocks.MoveBefore(s.dues.min())
	}
}

// grid is the lane's arrival grid: each arrival delay after the last, by
// float addition. whole says delay is a whole number below 2^31.
type grid struct {
	delay float64
	whole bool
}

func newGrid(delay float64) grid {
	return grid{delay: delay, whole: delay == math.Trunc(delay) && delay < 1<<31}
}

// count returns how many grid points from t on come before limit (or at it,
// if atLimit), and the first point after them, exactly as replaying
// t += delay would. A whole delay lets it jump a binade at a time: every
// float in t's binade is a multiple of its spacing, which divides delay, so
// t + k·delay is exact up to the first sum to leave the binade, and one
// multiply-add rounds that one as the k-th addition does.
func (g grid) count(t, limit float64, atLimit bool) (int, float64) {
	n := 0
	for t < limit || atLimit && t == limit {
		if !g.whole || limit-t < 8*g.delay || t >= 1<<52 {
			n, t = n+1, t+g.delay
			continue
		}
		end, endIn := limit, atLimit
		if top := math.Float64frombits((math.Float64bits(t)>>52 + 1) << 52); top <= limit {
			end, endIn = top, false // t's binade is [top/2, top)
		}
		past := func(k int) bool {
			p := t + float64(k)*g.delay
			return p > end || !endIn && p == end
		}
		k := max(1, int((end-t)/g.delay))
		for k > 1 && past(k-1) {
			k--
		}
		for !past(k) {
			k++
		}
		n, t = n+k, t+float64(k)*g.delay
	}
	return n, t
}

// step returns t advanced k grid points, exactly as k replays of t += delay
// would, a binade at a time as count goes: the sums inside t's binade are
// exact, and one multiply-add rounds the first to leave it as its addition
// does.
func (g grid) step(t float64, k int) float64 {
	for k > 0 {
		j := 1
		if g.whole && t < 1<<52 {
			top := math.Float64frombits((math.Float64bits(t)>>52 + 1) << 52)
			j = min(k, max(1, int((top-t)/g.delay)))
			for j < k && t+float64(j)*g.delay < top {
				j++
			}
		}
		t, k = t+float64(j)*g.delay, k-j
	}
	return t
}

// dueHeap is a binary min-heap of downloads by due instant, kept in the
// heap itself so min and passOver read one slot; each download keeps its
// index in dueAt.
type dueHeap []dueEntry

type dueEntry struct {
	due float64
	dl  *download
}

func (h dueHeap) min() float64 {
	if len(h) == 0 {
		return math.Inf(1)
	}
	return h[0].due
}

func (h *dueHeap) set(dl *download, due float64) {
	if dl.dueAt < 0 {
		dl.dueAt = len(*h)
		*h = append(*h, dueEntry{dl: dl})
	}
	(*h)[dl.dueAt].due = due
	h.fix(dl.dueAt)
}

func (h *dueHeap) remove(dl *download) {
	i, last := dl.dueAt, len(*h)-1
	if i != last {
		h.put(i, (*h)[last])
	}
	(*h)[last] = dueEntry{}
	*h = (*h)[:last]
	dl.dueAt = -1
	if i < last {
		h.fix(i)
	}
}

// fix sifts the entry at i up or down to its place.
func (h dueHeap) fix(i int) {
	e := h[i]
	for i > 0 && h[(i-1)/2].due > e.due {
		h.put(i, h[(i-1)/2])
		i = (i - 1) / 2
	}
	for {
		c := 2*i + 1
		if c+1 < len(h) && h[c+1].due < h[c].due {
			c++
		}
		if c >= len(h) || e.due <= h[c].due {
			break
		}
		h.put(i, h[c])
		i = c
	}
	h.put(i, e)
}

func (h dueHeap) put(i int, e dueEntry) {
	h[i] = e
	e.dl.dueAt = i
}
