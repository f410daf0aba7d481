package sim

import (
	"math"
	"slices"
)

// Block accounting. An arrival is counted, not fired: a block changes only
// the session's sent, its download's receivedKbits, the collector's window
// volume, the ranker's books and the event count, so those are brought up
// to date when something reads them. A session's arrivals lie on a grid —
// the first a block time after it starts, each next a block time after the
// last, by float addition — so session.next says which have been credited.
//
// The tie rule is declared: at instant T every arrival at or before T has
// arrived, for every reader; the downloads due at T then complete in
// (due, seq) order; the heap's events at T fire last, in (at, seq) order.
// The readers are a terminating session, a completing download's feeders,
// pickWaiting's Score (the server's and the requester's open sessions:
// Ranker's contract), fileDue and the horizon. OnWhitewash follows a
// departure that ended, and so credited, every session of the peer.
//
// Every download that can complete sits in the due heap under the exact
// instant it completes at (fileDue): the merged arrivals of its feeders
// reaching ObjectKbits, or now if it is already whole.
//
// Counting in bulk is exact while every sum of blocks is, which a whole
// BlockKbits keeps. Other configurations (eager) credit block by block and
// file due instants by replaying the merged arrivals.

// lazyBlocks reports whether cfg's block arithmetic is exact in bulk.
func lazyBlocks(cfg Config) bool { return cfg.BlockKbits == math.Trunc(cfg.BlockKbits) }

// credit brings sess up to now: every arrival at or before it.
func (s *Sim) credit(sess *session) { s.creditUntil(sess, s.q.Now()) }

// creditUntil credits sess with its arrivals at or before limit: to its sent
// and download, to the collector (those at or after the warm-up instant), to
// the ranker and to the event count. An eager run credits them one at a
// time.
func (s *Sim) creditUntil(sess *session, limit float64) {
	for s.eager && sess.next < limit {
		s.creditUntil(sess, sess.next)
	}
	n, next := s.grid.count(sess.next, limit, true)
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

// needed returns the least m >= 1 with received + m·BlockKbits >=
// ObjectKbits, for a received short of it.
func (s *Sim) needed(received float64) int {
	b, obj := s.cfg.BlockKbits, s.cfg.ObjectKbits
	m := int(math.Ceil((obj - received) / b))
	for m > 1 && received+float64(m-1)*b >= obj {
		m--
	}
	for received+float64(m)*b < obj {
		m++
	}
	return m
}

// fileDue files dl in the due heap under the exact instant it completes at,
// after its feeders changed: now if it is whole, else when its feeders'
// merged arrivals make it so. One that is done, or short with no feeder,
// leaves the heap. Each feeder is credited through now, so the next
// arrivals all lie in (now, now+Δ] (a new feeder's is now+Δ), and since
// float addition is monotone their grids interleave in that order from then
// on: the m-th merged arrival is the ((m−1) mod f)-th of them, advanced
// (m−1)/f block times. An eager run replays the merge instead.
func (s *Sim) fileDue(dl *download) {
	next := s.nextScratch[:0]
	for _, f := range dl.sessions {
		s.credit(f)
		next = append(next, f.next)
	}
	s.nextScratch = next
	whole := dl.receivedKbits >= s.cfg.ObjectKbits
	switch {
	case dl.done || !whole && len(next) == 0:
		if dl.dueAt >= 0 {
			s.dues.remove(dl)
		}
	case whole:
		s.dues.set(dl, s.q.Now())
	case s.eager:
		s.dues.set(dl, s.mergedArrival(next, s.needed(dl.receivedKbits)))
	default:
		slices.Sort(next)
		m := s.needed(dl.receivedKbits) - 1
		s.dues.set(dl, s.grid.step(next[m%len(next)], m/len(next)))
	}
}

// mergedArrival returns the m-th arrival (m >= 1) on the merged grids from
// next on, advancing next: the replay an eager run files due instants by,
// and that fileDue's interleave must match.
func (s *Sim) mergedArrival(next []float64, m int) float64 {
	for {
		i := 0
		for j := range next {
			if next[j] < next[i] {
				i = j
			}
		}
		if m--; m == 0 {
			return next[i]
		}
		next[i] += s.grid.delay
	}
}

// grid is a session's arrival grid: each arrival delay after the last, by
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

// dueHeap is a binary min-heap of downloads by (due instant, seq), kept in
// the heap itself so min reads one slot; each download keeps its index in
// dueAt.
type dueHeap []dueEntry

type dueEntry struct {
	due float64
	dl  *download
}

// before is the heap's order: the earlier instant, and at one instant the
// download created first.
func (e dueEntry) before(f dueEntry) bool {
	return e.due < f.due || e.due == f.due && e.dl.seq < f.dl.seq
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
	for i > 0 && e.before(h[(i-1)/2]) {
		h.put(i, h[(i-1)/2])
		i = (i - 1) / 2
	}
	for {
		c := 2*i + 1
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if c >= len(h) || !h[c].before(e) {
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
