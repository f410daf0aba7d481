package sim

import (
	"slices"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/eventq"
	"barter/internal/index"
	"barter/internal/strategy"
)

// download tracks one outstanding object download at a requesting peer. It
// may be fed by several concurrent sessions from different sources (the
// system supports partial, multi-source transfers).
type download struct {
	object        catalog.ObjectID
	requestedAt   float64
	receivedKbits float64
	// providers is the lookup result plus any later-learned holders; it is
	// the set a ring search may close through: about LookupMax distinct ids
	// (CheckInvariants), so add through addProvider.
	providers []core.PeerID
	// requestedFrom lists the servers holding a registered request for this
	// download, in registration order.
	requestedFrom []core.PeerID
	// sessions currently feeding this download.
	sessions []*session
}

// addProvider records p as a known holder of the download's object.
func (dl *download) addProvider(p core.PeerID) {
	if !slices.Contains(dl.providers, p) {
		dl.providers = append(dl.providers, p)
	}
}

// request is one incoming-request-queue entry at a serving peer.
type request struct {
	requester core.PeerID
	object    catalog.ObjectID
	arrival   float64
	// session is non-nil while this entry is being served by the queue's
	// owner.
	session *session
}

// irqKey identifies an IRQ entry; a peer holds at most one registered
// request per (requester, object) pair, as in the paper.
type irqKey struct {
	requester core.PeerID
	object    catalog.ObjectID
}

// session is one active transfer: src uploads object to dst at exactly one
// slot's rate, one block per event. ringSize 1 marks a non-exchange
// transfer; ringSize >= 2 marks membership in an exchange ring of that size.
//
// Sessions come from (and return to) the engine's free list. An open
// session has exactly one arrival on the engine's block lane, stamped with
// gen (CheckInvariants): the per-block hot path — the single most frequent
// event in any run — schedules without allocating anything.
type session struct {
	// The fields a block arrival touches come first, on one cache line.
	gen      uint64    // advanced on termination; kept across recycling
	dl       *download // download at dst
	sent     float64   // kbits delivered so far
	src, dst core.PeerID
	dstClass int // dst's class, which the block accounting is kept by

	object   catalog.ObjectID
	ringSize int
	ring     *ringState
	entry    *request // IRQ entry at src
	startAt  float64
	closed   bool
}

// ringState ties the sessions of one exchange ring together: when any
// member stops (completes its download, departs, or loses the object), the
// whole ring dissolves and the surviving members reschedule.
type ringState struct {
	sessions  []*session
	dissolved bool
}

// peerState is the full simulator state of one peer.
type peerState struct {
	id core.PeerID
	// class indexes the run's population mix; strat points at the class's
	// strategy definition (stable for the run).
	class int
	strat *strategy.Strategy
	// sharing is the peer's current contribution state. For most classes it
	// is fixed at strat.Share; adaptive free-riders toggle it at runtime.
	sharing bool
	online  bool
	// ulSlots is this peer's upload-slot capacity: the configured slots,
	// throttled by the strategy for partial sharers.
	ulSlots int

	interest *catalog.Interest
	// store is the set of objects the peer holds: a bitset over the
	// catalog's dense object ids, so membership is a shift and a mask on the
	// ring-search hot path and iteration is in ascending id order. After
	// New's initial placement, mutate it through Sim.addObject/removeObject
	// only (they invalidate the peer's adjCache and keep free).
	store    index.Set[catalog.ObjectID]
	storeCap int
	// free counts the objects of the peer's interest categories that it
	// neither stores nor has pending: the misses a closed-loop request draw
	// can find. At zero every draw is a hit (CheckInvariants recounts it).
	free int

	// pending lists the outstanding downloads in issue order, which is the
	// deterministic want order of ring searches. It never exceeds MaxPending
	// entries, so a linear scan beats any keyed structure. Mutate it through
	// Sim.addPending/removePending only (they keep free).
	pending []*download

	// irq is the incoming request queue in arrival order, irqIndex its
	// (requester, object) lookup. Mutate them through Sim.addIRQ/pushIRQ/
	// dropIRQ/dropQueue only (they invalidate the peer's adjCache).
	irq      []*request
	irqIndex map[irqKey]*request

	uploads   []*session
	downloads []*session

	// retryEv is the pending lookup-retry event, if any; retry is the event
	// itself, built once in New so arming a retry allocates nothing.
	retryEv eventq.Handle
	retry   eventq.Func
	// wantScratch and want1 back wants()/wantFor(); see those methods for
	// why reuse is safe.
	wantScratch []core.Want
	want1       [1]core.Want
}

func (p *peerState) hasFreeUploadSlot() bool            { return len(p.uploads) < p.ulSlots }
func (p *peerState) hasFreeDownloadSlot(slots int) bool { return len(p.downloads) < slots }

// uploadsInExchange reports whether any of the peer's exchange uploads
// carries obj. The uploads slice is bounded by the slot count, so the scan
// is cheaper than materializing a set.
func (p *peerState) uploadsInExchange(obj catalog.ObjectID) bool {
	for _, up := range p.uploads {
		if up.ringSize > 1 && up.object == obj {
			return true
		}
	}
	return false
}

// preemptibleUpload returns the most recently started non-exchange upload,
// or nil. The paper reclaims non-exchange slots "as soon as another exchange
// becomes possible"; preempting the youngest session sacrifices the least
// accumulated work.
func (p *peerState) preemptibleUpload() *session {
	for i := len(p.uploads) - 1; i >= 0; i-- {
		if s := p.uploads[i]; s.ringSize == 1 {
			return s
		}
	}
	return nil
}

// removeSession deletes s from a session slice, preserving order (slices are
// short: bounded by slot counts).
func removeSession(ss []*session, s *session) []*session {
	for i, v := range ss {
		if v == s {
			return append(ss[:i], ss[i+1:]...)
		}
	}
	return ss
}

// pendingFor returns the peer's outstanding download of obj, or nil.
func (p *peerState) pendingFor(obj catalog.ObjectID) *download {
	for _, dl := range p.pending {
		if dl.object == obj {
			return dl
		}
	}
	return nil
}

// has reports whether the peer stores obj.
func (p *peerState) has(obj catalog.ObjectID) bool { return p.store.Contains(obj) }

// wants materializes the peer's current wants for a ring search, in
// deterministic pending order. The returned slice is the peer's reusable
// scratch: ring searches never retain it (rings copy the object they
// close on), and no call path builds a second wants slice for the same
// peer while one is in use.
func (p *peerState) wants() []core.Want {
	out := p.wantScratch[:0]
	for _, dl := range p.pending {
		out = append(out, core.Want{Object: dl.object, Providers: dl.providers})
	}
	p.wantScratch = out
	return out
}

// wantFor materializes a single-want slice for the targeted
// before-transmission search, backed by its own one-element scratch so it
// cannot collide with a wants() slice live on the same stack.
func (p *peerState) wantFor(dl *download) []core.Want {
	p.want1[0] = core.Want{Object: dl.object, Providers: dl.providers}
	return p.want1[:]
}

// addIRQ appends an entry to p's queue if capacity allows and no duplicate
// exists; it returns the entry, or nil if rejected.
func (s *Sim) addIRQ(p *peerState, req *request, capacity int) *request {
	k := irqKey{requester: req.requester, object: req.object}
	if _, dup := p.irqIndex[k]; dup {
		return nil
	}
	if len(p.irq) >= capacity {
		return nil
	}
	s.pushIRQ(p, req)
	return req
}

// pushIRQ appends an entry unconditionally (ring-implicit requests bypass
// queue capacity).
func (s *Sim) pushIRQ(p *peerState, req *request) {
	p.irq = append(p.irq, req)
	p.irqIndex[irqKey{requester: req.requester, object: req.object}] = req
	s.adj[p.id].ok = false
}

// dropIRQ removes p's entry for (requester, object), if present.
func (s *Sim) dropIRQ(p *peerState, requester core.PeerID, object catalog.ObjectID) *request {
	k := irqKey{requester: requester, object: object}
	req, ok := p.irqIndex[k]
	if !ok {
		return nil
	}
	delete(p.irqIndex, k)
	s.adj[p.id].ok = false
	for i, e := range p.irq {
		if e == req {
			p.irq = append(p.irq[:i], p.irq[i+1:]...)
			break
		}
	}
	return req
}

// lookupIRQ returns the entry for (requester, object), or nil.
func (p *peerState) lookupIRQ(requester core.PeerID, object catalog.ObjectID) *request {
	return p.irqIndex[irqKey{requester: requester, object: object}]
}
