package sim

import (
	"math"
	"slices"
	"time"
)

// Block accounting. An arrival is counted, not fired: a block changes only
// the session's sent, its download's received, the collector's window
// volume, the ranker's books and the event count, so those are brought up
// to date when something reads them. The clock is whole nanoseconds and
// every transfer runs at one slot rate (§IV-A), so a session's k-th block
// lands at exactly startAt + k·Δ, Δ the block time: the arrivals by t are
// (t − startAt)/Δ, and sent, the count credited, is the session's cursor.
//
// The tie rule is declared: at instant T every arrival at or before T has
// arrived, for every reader; the downloads due at T then complete as one
// batch in (due, seq) order, each keeping its books before any one's
// teardown runs; the heap's events at T fire last, in (at, seq) order.
// The readers are a terminating session, a completing download's feeders,
// pickWaiting's Score (the server's and the requester's open sessions:
// Ranker's contract), fileDue and the horizon. OnWhitewash follows a
// departure that ended, and so credited, every session of the peer.
//
// Every download that can complete sits in the due heap under the exact
// instant it completes at (fileDue): the merged arrivals of its feeders
// reaching objBlocks. A pending download is never whole: the batch takes
// every download whole at T out of pending before anything else runs.

// dur rounds seconds to the nearest nanosecond: the one place a time in
// seconds (a Config interval, a random stagger, a workload or trace
// instant) enters the clock.
func dur(sec float64) time.Duration { return time.Duration(math.Round(sec * 1e9)) }

// seconds is the inverse edge: a Duration as the seconds a Result, a Ranker
// or a workload schedule reads.
func seconds(d time.Duration) float64 { return float64(d) / 1e9 }

// credit brings sess up to now: every arrival at or before it.
func (s *Sim) credit(sess *session) { s.creditUntil(sess, s.now()) }

// creditUntil credits sess with its arrivals at or before limit: to its sent
// and download, to the collector (those at or after the warm-up instant), to
// the ranker and to the event count.
func (s *Sim) creditUntil(sess *session, limit time.Duration) {
	if sess.startAt+time.Duration(sess.sent+1)*s.delta > limit {
		return // credited through limit already
	}
	total := int((limit - sess.startAt) / s.delta)
	n := total - sess.sent
	if warm := s.col.warmupAt; limit >= warm {
		first := sess.sent // the window's arrivals are those after first
		if w := warm - sess.startAt; w > 0 {
			first = max(first, int((w-1)/s.delta))
		}
		s.col.classes[sess.dstClass].recvBlocks += total - first
	}
	sess.sent = total
	sess.dl.received += n
	if s.cfg.Ranker != nil {
		s.cfg.Ranker.OnTransfer(sess.src, sess.dst, float64(n)*s.cfg.BlockKbits)
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

// fileDue files dl in the due heap under the exact instant it completes at,
// after its feeders changed: when its feeders' merged arrivals make it
// whole. One that is done, or has no feeder, leaves the heap; a pending
// download is never whole (completeDue), so one with no feeder is short.
// Each feeder is credited through now, so the next arrivals all lie in
// (now, now+Δ] (a new feeder's is now+Δ), and from then on the feeders take
// turns in that order: the m-th merged arrival is the ((m−1) mod f)-th of
// them, advanced (m−1)/f block times.
func (s *Sim) fileDue(dl *download) {
	next := s.nextScratch[:0]
	for _, f := range dl.sessions {
		s.credit(f)
		next = append(next, f.startAt+time.Duration(f.sent+1)*s.delta)
	}
	s.nextScratch = next
	if dl.done || len(next) == 0 {
		if dl.dueAt >= 0 {
			s.dues.remove(dl)
		}
		return
	}
	slices.Sort(next)
	m := s.objBlocks - dl.received - 1
	s.dues.set(dl, next[m%len(next)]+time.Duration(m/len(next))*s.delta)
}

// dueHeap is a binary min-heap of downloads by (due instant, seq), kept in
// the heap itself so the first reads one slot; each download keeps its
// index in dueAt.
type dueHeap []dueEntry

type dueEntry struct {
	due time.Duration
	dl  *download
}

// before is the heap's order: the earlier instant, and at one instant the
// download created first.
func (e dueEntry) before(f dueEntry) bool {
	return e.due < f.due || e.due == f.due && e.dl.seq < f.dl.seq
}

func (h *dueHeap) set(dl *download, due time.Duration) {
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
