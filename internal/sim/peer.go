package sim

import (
	"slices"
	"time"

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
	peer        core.PeerID // the peer downloading
	seq         uint64      // creation order, which orders downloads due at one instant
	object      catalog.ObjectID
	requestedAt time.Duration
	// received counts its feeders' credited blocks (see blocks.go): blocks
	// that arrived since a feeder was last credited are not in it yet.
	received int
	// dueAt is the download's place in the engine's due heap, under the
	// instant it completes at if its feeders keep feeding, or -1 when it is
	// not there: without a feeder, or no longer pending, which done marks.
	dueAt int
	done  bool
	// providers is the lookup result plus any later-learned holders; it is
	// the set a ring search may close through: about lookupMax distinct ids
	// (CheckInvariants), so add through addProvider.
	providers []core.PeerID
	// requestedFrom lists the servers a request for this download was
	// registered with, in registration order, including servers that have
	// since dropped it; reqs holds the requests still queued, each at its
	// server.
	requestedFrom []core.PeerID
	reqs          []*request
	// sessions currently feeding this download.
	sessions []*session
}

// addProvider records p as a known holder of the download's object.
func (dl *download) addProvider(p core.PeerID) {
	if !slices.Contains(dl.providers, p) {
		dl.providers = append(dl.providers, p)
	}
}

// requestAt returns the download's request queued at server, or nil: a
// peer holds at most one registered request per (requester, object) pair,
// as in the paper.
func (dl *download) requestAt(server core.PeerID) *request {
	for _, r := range dl.reqs {
		if r.server == server {
			return r
		}
	}
	return nil
}

// request is one incoming-request-queue entry at a serving peer.
type request struct {
	requester, server core.PeerID
	object            catalog.ObjectID
	arrival           time.Duration
	// session is non-nil while this entry is being served by the queue's
	// owner.
	session *session
}

// session is one active transfer: src uploads object to dst at exactly one
// slot's rate, one block per block time. ringSize 1 marks a non-exchange
// transfer; ringSize >= 2 marks membership in an exchange ring of that size.
//
// Sessions come from (and return to) the engine's free list. Their blocks
// are counted, not fired: the k-th lands at startAt + k·Δ, and sent counts
// those credited to the books (see blocks.go).
type session struct {
	// The fields block accounting touches come first, on one cache line.
	dl       *download     // download at dst
	sent     int           // blocks credited so far
	startAt  time.Duration // when the session started
	src, dst core.PeerID
	dstClass int // dst's class, which the block accounting is kept by

	object   catalog.ObjectID
	ringSize int
	ring     *ringState
	entry    *request // IRQ entry at src
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

	// irq is the incoming request queue in arrival order; an entry is found
	// through its requester's download (download.requestAt). Mutate it
	// through Sim.pushIRQ/withdrawRequests/dropQueue only (they keep the
	// downloads' reqs and invalidate the peer's adjCache).
	irq []*request

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

// remove deletes v from a short slice (bounded by slot counts or the
// request fanout), preserving order.
func remove[T comparable](list []T, v T) []T {
	if i := slices.Index(list, v); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
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

// pushIRQ appends req to p's queue and to its requester's download dl
// (ring-implicit requests bypass queue capacity).
func (s *Sim) pushIRQ(p *peerState, dl *download, req *request) {
	req.server = p.id
	p.irq = append(p.irq, req)
	dl.reqs = append(dl.reqs, req)
	s.adj[p.id].ok = false
}
