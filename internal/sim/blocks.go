package sim

import "math"

// Block accounting. An arrival is counted, not fired: a block changes only
// the session's sent, its download's receivedKbits, the collector's window
// volume, the ranker's books and the event count, so those are brought up
// to date when something reads them. A session's arrivals lie on the lane's
// grid — the first a block time after it starts, each next a block time
// after the last, by the lane's own float addition — so session.next says
// which have been credited, and the clock which have arrived.
//
// The tie rule: an arrival due now has arrived iff its lane entry has
// fired, walked or carried past (Lane.PendingNow). The readers are a
// terminating session, a completing download's other feeders, pickWaiting's
// Score (the server's and the requester's open sessions: Ranker's
// contract) and the horizon. OnWhitewash follows a departure that ended,
// and so credited, every session of the peer.
//
// The lane walks only runs at which a download is due: every download with
// a feeder sits in the due heap under a lower bound of the instant its
// feeders' merged arrivals reach ObjectKbits, made exact when the lane
// reaches it (walkRun). Other runs move whole, and a walk fires only the
// arrivals of the due downloads' feeders (passOver).
//
// Counting in bulk is exact while every sum of blocks is: a whole BlockKbits
// keeps sums integral, and at most 2^20 blocks an object keep the bound's
// margin above the grid's rounding. Other configurations walk every run and
// credit each block as it fires.

// dueMargin scales a bound computed in one multiply-add below what k < 2^22
// float additions can reach: they drift by less than k·2^-53 of the instant.
const dueMargin = 1 - 0x1p-30

// deadShare bounds the lane's dead entries to 1/deadShare of its live ones.
// On the paper-scale fig4 slice without exchanges, 1/4 moves 1.7 % more
// runs than there are instants with a live arrival, and compaction visits
// one entry per seventy arrivals; 1/16 moves 0.4 % more but visits one per
// twenty, and three times as many on the ring slice.
const deadShare = 4

// lazyBlocks reports whether cfg's block arithmetic is exact in bulk.
func lazyBlocks(cfg Config) bool {
	return cfg.BlockKbits == math.Trunc(cfg.BlockKbits) && cfg.ObjectKbits/cfg.BlockKbits <= 1<<20
}

// credit brings sess up to now: every arrival before it, and the one at it
// if the tie rule says it arrived. That needs asking only if it may have
// gone by uncredited: a fired arrival was credited as it fired.
func (s *Sim) credit(sess *session) {
	now := s.q.Now()
	if sess.next > now {
		return
	}
	s.creditUntil(sess, now, false)
	if sess.next == now && s.passedNow(sess) && !s.arrivalPending(sess) {
		s.creditUntil(sess, now, true)
	}
}

// passedNow reports whether sess's arrival due now may have been carried
// past it: by a moved run, or by a walk that did not stamp sess. Walks at
// one instant pass over only what the last did not stamp: the downloads due
// at an instant only leave, and a new feeder's first arrival is later.
func (s *Sim) passedNow(sess *session) bool {
	return s.blocks.MovedNow() || s.stampAt == s.q.Now() && s.feeder[sess.id] != s.stamp
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

// walkRun is the lane's run filter: after refining every bound at or before
// at, the run at at is walked iff a download is due at it, and the feeders
// of the due downloads get a fresh stamp.
func (s *Sim) walkRun(at float64) bool {
	for dl := s.dues.boundBy(0, at); dl != nil; dl = s.dues.boundBy(0, at) {
		s.refineDue(dl, at)
	}
	if s.dues.min() > at {
		return false
	}
	s.stamp++
	s.stampAt = at
	s.stampFeeders(0, at)
	return true
}

// stampFeeders stamps the feeders of the downloads due by at in the heap's
// subtree at i.
func (s *Sim) stampFeeders(i int, at float64) {
	if i < len(s.dues) && s.dues[i].due <= at {
		for _, f := range s.dues[i].dl.sessions {
			s.feeder[f.id] = s.stamp
		}
		s.stampFeeders(2*i+1, at)
		s.stampFeeders(2*i+2, at)
	}
}

// passOver is the lane's pass: a walk carries the arrivals of unstamped
// sessions over, dead or alive, as a moved run would.
func (s *Sim) passOver(a arrival) bool { return s.feeder[a.id] != s.stamp }

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

// boundDue re-bounds dl's due instant after its feeders changed: f feeders
// make m arrivals no sooner than ceil(m/f)-1 block times after the earliest
// uncredited one.
func (s *Sim) boundDue(dl *download) {
	switch {
	case dl.done:
	case len(dl.sessions) == 0:
		s.dropDue(dl)
	default:
		first := dl.sessions[0].next
		for _, f := range dl.sessions[1:] {
			first = min(first, f.next)
		}
		rounds := (s.needed(dl.receivedKbits)+len(dl.sessions)-1)/len(dl.sessions) - 1
		dl.exact = false
		s.setDue(dl, (first+float64(rounds)*s.grid.delay)*dueMargin)
	}
}

// refineDue makes dl's due instant exact just before the lane fires a run at
// at: every arrival before at has fired, so its feeders are credited up to
// at and the few blocks still needed are replayed.
func (s *Sim) refineDue(dl *download, at float64) {
	next := s.nextScratch[:0]
	for _, f := range dl.sessions {
		s.creditUntil(f, at, false)
		next = append(next, f.next)
	}
	s.nextScratch = next
	dl.exact = true
	s.setDue(dl, s.mergedArrival(next, s.needed(dl.receivedKbits)))
}

// setDue and dropDue file dl in the due heap and take it out, and tell the
// lane that no run before the earliest due instant needs asking.
func (s *Sim) setDue(dl *download, due float64) {
	s.dues.set(dl, due)
	s.blocks.MoveBefore(s.dues.min())
}

func (s *Sim) dropDue(dl *download) {
	if dl.dueAt >= 0 {
		s.dues.remove(dl)
		s.blocks.MoveBefore(s.dues.min())
	}
}

// mergedArrival returns the m-th arrival (m >= 1) on the merged grids from
// next on, advancing next.
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

// dueHeap is a binary min-heap of downloads by due instant, kept in the
// heap itself so the lane's question reads one slot; each download keeps
// its index in dueAt.
type dueHeap []dueEntry

type dueEntry struct {
	due float64
	dl  *download
}

// boundBy returns a download in the subtree at i filed under a bound at or
// before at, or nil.
func (h dueHeap) boundBy(i int, at float64) *download {
	if i >= len(h) || h[i].due > at {
		return nil
	}
	if !h[i].dl.exact {
		return h[i].dl
	}
	if dl := h.boundBy(2*i+1, at); dl != nil {
		return dl
	}
	return h.boundBy(2*i+2, at)
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
