package sim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
)

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return seconds(s.now()) }

// Step fires the next piece of work: the downloads due first, if they are
// due no later than the heap's next event, else that event. It reports
// whether anything remained to fire.
func (s *Sim) Step() bool { return s.step(math.MaxInt64) }

// CheckInvariants verifies the internal consistency of the whole simulation
// state: property and integration tests interleave it with Step (and with
// churn injection) to catch bookkeeping corruption as soon as it happens.
func (s *Sim) CheckInvariants() error {
	for _, p := range s.peers {
		if err := s.checkPeer(p); err != nil {
			return fmt.Errorf("peer %d: %w", p.id, err)
		}
	}
	if err := s.checkRecycled(); err != nil {
		return err
	}
	if err := s.checkHolders(); err != nil {
		return err
	}
	if err := s.checkWanters(); err != nil {
		return err
	}
	return s.checkBlocks()
}

func (s *Sim) checkPeer(p *peerState) error {
	if p.ulSlots < 1 || p.ulSlots > s.ulSlots {
		return fmt.Errorf("upload slot cap %d outside [1, %d]", p.ulSlots, s.ulSlots)
	}
	if len(p.uploads) > p.ulSlots {
		return fmt.Errorf("%d uploads exceed %d slots", len(p.uploads), p.ulSlots)
	}
	if len(p.downloads) > s.dlSlots {
		return fmt.Errorf("%d downloads exceed %d slots", len(p.downloads), s.dlSlots)
	}
	if len(p.pending) > s.cfg.MaxPending {
		return fmt.Errorf("%d pending downloads exceed max %d", len(p.pending), s.cfg.MaxPending)
	}
	if !p.online && (len(p.pending) != 0 || len(p.irq) != 0 || len(p.uploads) != 0 || len(p.downloads) != 0) {
		return fmt.Errorf("offline peer retains transfer state")
	}
	for _, dl := range p.pending {
		obj := dl.object
		if p.pendingFor(obj) != dl {
			return fmt.Errorf("pending lists object %d twice", obj)
		}
		for i, id := range dl.providers { // a set held as a slice: the set rule is checked, not given
			if id < 0 || int(id) >= s.cfg.NumPeers || slices.Contains(dl.providers[:i], id) {
				return fmt.Errorf("download %d: providers %v repeat an id or leave [0, %d)", obj, dl.providers, s.cfg.NumPeers)
			}
		}
		for _, r := range dl.reqs {
			if r.requester != p.id || r.object != obj || dl.requestAt(r.server) != r || !slices.Contains(s.peers[r.server].irq, r) {
				return fmt.Errorf("download %d: request at %d is not its one entry in that queue", obj, r.server)
			}
		}
		for _, sess := range dl.sessions {
			if sess.closed {
				return fmt.Errorf("download %d lists closed session", obj)
			}
			if sess.dst != p.id || sess.object != obj {
				return fmt.Errorf("download %d lists foreign session %d->%d obj %d",
					obj, sess.src, sess.dst, sess.object)
			}
		}
	}
	for _, sess := range p.uploads {
		if sess.closed {
			return fmt.Errorf("closed session in uploads")
		}
		if sess.src != p.id {
			return fmt.Errorf("upload session src %d != peer", sess.src)
		}
		if !p.has(sess.object) {
			return fmt.Errorf("uploading object %d not in store", sess.object)
		}
		if !p.sharing {
			return fmt.Errorf("non-sharing peer is uploading")
		}
		if sess.entry == nil || sess.entry.session != sess {
			return fmt.Errorf("upload session not linked to its IRQ entry")
		}
		if sess.ringSize > 1 && (sess.ring == nil || sess.ring.dissolved) {
			return fmt.Errorf("exchange session without live ring")
		}
	}
	for _, sess := range p.downloads {
		if sess.closed {
			return fmt.Errorf("closed session in downloads")
		}
		if sess.dst != p.id {
			return fmt.Errorf("download session dst %d != peer", sess.dst)
		}
		if p.pendingFor(sess.object) == nil {
			return fmt.Errorf("download session for non-pending object %d", sess.object)
		}
	}
	for _, e := range p.irq {
		if e.session != nil && e.session.closed {
			return fmt.Errorf("irq entry linked to closed session")
		}
		q := s.peers[e.requester]
		dl := q.pendingFor(e.object)
		if !q.online || dl == nil {
			return fmt.Errorf("irq entry (%d, %d) outlived its download", e.requester, e.object)
		}
		if e.server != p.id || dl.requestAt(p.id) != e {
			return fmt.Errorf("irq entry (%d, %d) is not its download's request here", e.requester, e.object)
		}
	}
	// Implicit ring entries may exceed queue capacity by at most the number
	// of upload slots.
	if len(p.irq) > s.cfg.IRQCapacity+s.ulSlots {
		return fmt.Errorf("irq length %d exceeds capacity %d plus slots", len(p.irq), s.cfg.IRQCapacity)
	}
	bits := 0
	p.store.ForEach(func(catalog.ObjectID) bool { bits++; return true })
	if bits != p.store.Len() {
		return fmt.Errorf("store counts %d objects but has %d bits set", p.store.Len(), bits)
	}
	if free := s.countFree(p); p.free != free {
		return fmt.Errorf("free-interest count %d, recount %d", p.free, free)
	}
	return s.checkAdjacency(p)
}

// countFree recounts what peerState.free tracks, by its definition: the
// objects of p's interest categories it neither stores nor has pending.
func (s *Sim) countFree(p *peerState) int {
	n := 0
	for o := range catalog.ObjectID(s.cat.NumObjects()) {
		if slices.Contains(p.interest.Categories(), s.cat.Category(o)) && !p.has(o) && p.pendingFor(o) == nil {
			n++
		}
	}
	return n
}

// checkAdjacency verifies the two shortcuts ring searches take against the
// plain full scan of the IRQ: stopping at the fanout must yield exactly a
// prefix of the full list (never a reordering or a different selection), and
// a cached list that claims validity must equal a rebuild — a mutation site
// that forgot to invalidate shows up here.
func (s *Sim) checkAdjacency(p *peerState) error {
	full := s.liveEdges(p, 0, nil)
	for _, limit := range []int{1, searchFanout, len(full), len(full) + 1} {
		if limit <= 0 {
			continue
		}
		got := s.liveEdges(p, limit, nil)
		if !slices.Equal(got, full[:min(limit, len(full))]) {
			return fmt.Errorf("in-edges with limit %d are not a prefix of the %d-edge list", limit, len(full))
		}
	}
	if a := s.adj[p.id]; a.ok && !slices.Equal(a.edges, s.liveEdges(p, searchFanout, nil)) {
		return fmt.Errorf("cached in-edge list is stale: %v", a.edges)
	}
	return nil
}

// checkRecycled verifies that no download reachable from a pending list,
// the due heap or an open session sits on the dead or free list, and that
// the queues hold exactly the downloads' requests.
func (s *Sim) checkRecycled() error {
	retired := map[*download]bool{}
	for _, dl := range append(slices.Clip(s.deadDl), s.freeDl...) {
		retired[dl] = true
	}
	queued, reqs := 0, 0
	for _, p := range s.peers {
		queued += len(p.irq)
		for _, dl := range p.pending {
			reqs += len(dl.reqs)
			if retired[dl] || dl.done {
				return fmt.Errorf("peer %d's pending download of %d is retired", p.id, dl.object)
			}
		}
		for _, sess := range p.uploads {
			if retired[sess.dl] {
				return fmt.Errorf("session %d->%d feeds a retired download", sess.src, sess.dst)
			}
		}
	}
	for _, e := range s.dues {
		if retired[e.dl] {
			return fmt.Errorf("due heap holds a retired download of %d", e.dl.object)
		}
	}
	if queued != reqs {
		return fmt.Errorf("queues hold %d requests, downloads %d", queued, reqs)
	}
	return nil
}

// checkHolders verifies both directions of the holders index: every indexed
// (object, peer) entry is an online sharing peer storing the object, and
// every online sharing peer's stored object is indexed. Ascending iteration
// order is structural in the bitset index, so unlike the sorted-slice
// predecessor there is no order to re-verify.
func (s *Sim) checkHolders() error {
	var err error
	for o := range s.holders {
		obj := catalog.ObjectID(o)
		s.holders[o].ForEach(func(id core.PeerID) bool {
			p := s.peers[id]
			switch {
			case !p.sharing:
				err = fmt.Errorf("non-sharing peer %d indexed as holder of %d", id, obj)
			case !p.online:
				err = fmt.Errorf("offline peer %d indexed as holder of %d", id, obj)
			case !p.has(obj):
				err = fmt.Errorf("peer %d indexed as holder of %d it does not store", id, obj)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	for _, p := range s.peers {
		if !p.sharing || !p.online {
			continue
		}
		p.store.ForEach(func(obj catalog.ObjectID) bool {
			if !s.holders[obj].Contains(p.id) {
				err = fmt.Errorf("sharing peer %d stores %d but is not indexed", p.id, obj)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkWanters verifies both directions of the wanters index: every indexed
// (object, peer) entry corresponds to a live pending download, and every
// pending download is indexed.
func (s *Sim) checkWanters() error {
	var err error
	for o := range s.wanters {
		obj := catalog.ObjectID(o)
		s.wanters[o].ForEach(func(id core.PeerID) bool {
			if s.peers[id].pendingFor(obj) == nil {
				err = fmt.Errorf("peer %d indexed as wanter of %d without a pending download", id, obj)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	for _, p := range s.peers {
		for _, dl := range p.pending {
			if !s.wanters[dl.object].Contains(p.id) {
				return fmt.Errorf("peer %d pending download of %d not in wanters index", p.id, dl.object)
			}
		}
	}
	return nil
}

// checkBlocks verifies lazy block accounting against a recount from each
// session's start: every arrival at or before now has arrived, and the
// k-th lands k block times after the start. Every open session's credited
// blocks are a prefix of those. A pending download, counting what its
// feeders delivered and what closed feeders finished, is never whole; it
// sits in the due heap iff it has a feeder, under the instant the feeders'
// merged arrivals make it whole, which is not in the past. The heap is in
// (due, seq) order.
func (s *Sim) checkBlocks() error {
	now := s.now()
	for _, p := range s.peers {
		for _, dl := range p.pending {
			got := dl.received
			next := s.nextScratch[:0]
			for _, f := range dl.sessions {
				n := int((now - f.startAt) / s.delta)
				if f.sent > n {
					return fmt.Errorf("session %d->%d obj %d: %d blocks credited, %d delivered", f.src, f.dst, f.object, f.sent, n)
				}
				got += n - f.sent
				next = append(next, f.startAt+time.Duration(n+1)*s.delta)
			}
			s.nextScratch = next
			filed := dl.dueAt >= 0 && dl.dueAt < len(s.dues) && s.dues[dl.dueAt].dl == dl
			switch {
			case got >= s.objBlocks:
				return fmt.Errorf("peer %d download %d has %d of %d blocks delivered but is still pending", p.id, dl.object, got, s.objBlocks)
			case len(dl.sessions) == 0:
				if dl.dueAt >= 0 {
					return fmt.Errorf("peer %d download %d has no feeder but has a due instant", p.id, dl.object)
				}
			case !filed:
				return fmt.Errorf("peer %d download %d has a feeder but no place in the due heap", p.id, dl.object)
			default:
				due, want := s.dues[dl.dueAt].due, s.mergedArrival(next, s.objBlocks-got)
				switch {
				case want < now:
					return fmt.Errorf("peer %d download %d was due at %v, now is %v", p.id, dl.object, want, now)
				case due != want:
					return fmt.Errorf("peer %d download %d filed due at %v, recount says %v", p.id, dl.object, due, want)
				}
			}
		}
	}
	for i, e := range s.dues {
		if e.dl.dueAt != i || e.dl.done {
			return fmt.Errorf("due heap slot %d holds a download filed at %d (done %v)", i, e.dl.dueAt, e.dl.done)
		}
		if i > 0 && e.before(s.dues[(i-1)/2]) {
			return fmt.Errorf("due heap out of order at slot %d", i)
		}
	}
	return nil
}

// mergedArrival returns the m-th arrival (m >= 1) on the merged grids from
// next on, advancing next: the replay checkBlocks holds fileDue's
// interleave to.
func (s *Sim) mergedArrival(next []time.Duration, m int) time.Duration {
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
		next[i] += s.delta
	}
}
