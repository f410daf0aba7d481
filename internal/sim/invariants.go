package sim

import (
	"fmt"
	"slices"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/index"
)

// CheckInvariants verifies the internal consistency of the whole simulation
// state. It exists for tests: property and integration tests interleave it
// with Step (and with churn injection) to catch bookkeeping corruption as
// soon as it happens.
func (s *Sim) CheckInvariants() error {
	for _, p := range s.peers {
		if err := s.checkPeer(p); err != nil {
			return fmt.Errorf("peer %d: %w", p.id, err)
		}
	}
	if err := s.checkHolders(); err != nil {
		return err
	}
	if err := s.checkWanters(); err != nil {
		return err
	}
	return s.checkArrivals()
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
		if dl.receivedKbits >= s.cfg.ObjectKbits {
			return fmt.Errorf("download %d complete (%v kbits) but still pending", obj, dl.receivedKbits)
		}
		for i, id := range dl.providers { // a set held as a slice: the set rule is checked, not given
			if id < 0 || int(id) >= s.cfg.NumPeers || slices.Contains(dl.providers[:i], id) {
				return fmt.Errorf("download %d: providers %v repeat an id or leave [0, %d)", obj, dl.providers, s.cfg.NumPeers)
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
	if len(p.irqIndex) != len(p.irq) {
		return fmt.Errorf("irq (%d) and index (%d) diverged", len(p.irq), len(p.irqIndex))
	}
	for _, e := range p.irq {
		got := p.irqIndex[irqKey{requester: e.requester, object: e.object}]
		if got != e {
			return fmt.Errorf("irq entry (%d, %d) not indexed", e.requester, e.object)
		}
		if e.session != nil && e.session.closed {
			return fmt.Errorf("irq entry linked to closed session")
		}
		if q := s.peers[e.requester]; !q.online || q.pendingFor(e.object) == nil {
			return fmt.Errorf("irq entry (%d, %d) outlived its download", e.requester, e.object)
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
	for _, c := range p.interest.Categories() {
		for _, o := range s.cat.Objects(c) {
			if !p.has(o) && p.pendingFor(o) == nil {
				n++
			}
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
	for _, limit := range []int{1, s.cfg.SearchFanout, len(full), len(full) + 1} {
		if limit <= 0 {
			continue
		}
		got := s.liveEdges(p, limit, nil)
		if !slices.Equal(got, full[:min(limit, len(full))]) {
			return fmt.Errorf("in-edges with limit %d are not a prefix of the %d-edge list", limit, len(full))
		}
	}
	if a := s.adj[p.id]; a.ok && !slices.Equal(a.edges, s.liveEdges(p, s.cfg.SearchFanout, nil)) {
		return fmt.Errorf("cached in-edge list is stale: %v", a.edges)
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
	s.holders.ForEachKey(func(obj catalog.ObjectID, hs *index.Set[core.PeerID]) bool {
		hs.ForEach(func(id core.PeerID) bool {
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
		return err == nil
	})
	if err != nil {
		return err
	}
	for _, p := range s.peers {
		if !p.sharing || !p.online {
			continue
		}
		p.store.ForEach(func(obj catalog.ObjectID) bool {
			if !s.holders.Contains(obj, p.id) {
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
	s.wanters.ForEachKey(func(obj catalog.ObjectID, ws *index.Set[core.PeerID]) bool {
		ws.ForEach(func(id core.PeerID) bool {
			if s.peers[id].pendingFor(obj) == nil {
				err = fmt.Errorf("peer %d indexed as wanter of %d without a pending download", id, obj)
			}
			return err == nil
		})
		return err == nil
	})
	if err != nil {
		return err
	}
	for _, p := range s.peers {
		for _, dl := range p.pending {
			if !s.wanters.Contains(dl.object, p.id) {
				return fmt.Errorf("peer %d pending download of %d not in wanters index", p.id, dl.object)
			}
		}
	}
	return nil
}

// checkArrivals verifies the block lane against the sessions: every open
// session has exactly one arrival stamped with its current generation, and
// no closed session has one (a live arrival of a closed session would keep
// transferring a dead link; a missing one would stall an open link
// forever). Stale arrivals — earlier generations — are dead and allowed.
func (s *Sim) checkArrivals() error {
	live := make(map[*session]int)
	var err error
	s.blocks.ForEach(func(a arrival) bool {
		if a.gen != a.sess.gen {
			return true
		}
		if a.sess.closed {
			err = fmt.Errorf("closed session %d->%d obj %d has a live block arrival", a.sess.src, a.sess.dst, a.sess.object)
			return false
		}
		live[a.sess]++
		return true
	})
	if err != nil {
		return err
	}
	for _, p := range s.peers {
		for _, sess := range p.uploads {
			if n := live[sess]; n != 1 {
				return fmt.Errorf("open session %d->%d obj %d has %d live block arrivals, want 1", sess.src, sess.dst, sess.object, n)
			}
			delete(live, sess)
		}
	}
	if len(live) > 0 {
		return fmt.Errorf("%d sessions have a live block arrival but no peer uploads them", len(live))
	}
	return nil
}
