package node

import (
	"crypto/sha256"
	"fmt"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/perfstats"
	"barter/internal/protocol"
)

// The lane scheduler: the receiving side of every download. Everything here
// runs on the node's event loop.
//
// The first valid manifest fixes a download's geometry — block count,
// digests, and k = min(Config.Stripe, providers, blocks) lanes. Each origin
// whose manifest arrives while a lane is free is granted that lane (the
// StripeGrant releases its first block); a provider that answers when every
// lane is carried gets a Cancel, which frees its upload slot. Blocks are
// accepted only inside the granted lane and the granted session. A lane
// whose origin goes quiet, departs, or is caught cheating is taken back and
// re-offered without disturbing the others, and the download completes when
// every lane has verified. How a lane verifies is the one thing a mediator
// changes; see blockAcceptable and laneFull.

// lane tracks one lane of a download: the origin it is granted to, that
// origin's live session, and the lane's own progress, stall, and verify
// state.
type lane struct {
	origin    core.PeerID // 0 while the lane waits for an origin
	session   uint64
	have      int // blocks held in this lane
	lastHave  int
	stalled   int
	verifying bool // a mediator audit is in flight
	verified  bool
}

// laneSpan is how many block indices of total fall in lane idx of k.
func laneSpan(total, k, idx int) int {
	return (total - idx + k - 1) / k
}

// fillingLane returns the lane origin is still filling, or (-1, nil). Lanes
// under audit or verified don't count: an origin that finished one lane may
// claim a freed one with a later session (an origin runs at most one upload
// session per object at a time, so it never fills two lanes concurrently).
func (dl *download) fillingLane(origin core.PeerID) (int, *lane) {
	for i, l := range dl.lanes {
		if l.origin == origin && !l.verifying && !l.verified {
			return i, l
		}
	}
	return -1, nil
}

// laneForSession returns the lane carrying origin's given session, or
// (-1, nil). Sessions are unique per upload, so this is unambiguous even
// when one origin has filled several lanes over the download's lifetime.
func (dl *download) laneForSession(origin core.PeerID, session uint64) (int, *lane) {
	for i, l := range dl.lanes {
		if l.origin == origin && l.session == session {
			return i, l
		}
	}
	return -1, nil
}

// freeLane returns the lowest unassigned lane, or (-1, nil).
func (dl *download) freeLane() (int, *lane) {
	for i, l := range dl.lanes {
		if l.origin == 0 {
			return i, l
		}
	}
	return -1, nil
}

// auditing reports whether any lane has an audit in flight.
func (dl *download) auditing() bool {
	for _, l := range dl.lanes {
		if l.verifying {
			return true
		}
	}
	return false
}

func (n *Node) startDownload(obj catalog.ObjectID, providers map[core.PeerID]string, ch chan error) {
	if _, have := n.store[obj]; have {
		ch <- nil
		return
	}
	dl, ok := n.downloads[obj]
	if !ok {
		dl = &download{
			object:    obj,
			providers: make(map[core.PeerID]string, len(providers)),
		}
		n.downloads[obj] = dl
	}
	dl.waiters = append(dl.waiters, ch)
	for p, addr := range providers {
		if p != n.cfg.ID {
			dl.providers[p] = addr
		}
	}
	// "Prior to transmission of a request, the peer inspects the entire
	// request tree" — a ring may satisfy this want without any new request.
	n.tryExchange()
	n.sendRequests(dl)
}

func (n *Node) sendRequests(dl *download) {
	tree := protocol.FromCoreTree(n.myTree().Prune(core.DefaultMaxRing))
	for p, addr := range dl.providers {
		if pc := n.getConn(p, addr); pc != nil {
			pc.send(&protocol.Request{Object: dl.object, Tree: tree})
		}
	}
}

// cancel withdraws our request for dl's object from peer, which also ends
// any upload session it runs for us and frees that upload slot.
func (n *Node) cancel(dl *download, peer core.PeerID) {
	if pc, ok := n.conns[peer]; ok {
		pc.send(&protocol.Cancel{Object: dl.object})
	}
}

func (n *Node) onManifest(from core.PeerID, m *protocol.Manifest) {
	dl := n.downloads[m.Object]
	if dl == nil {
		return
	}
	// Validate the manifest before any state changes: a garbage manifest
	// must not win a lane (cancelling an honest provider).
	if m.Blocks == 0 || int(m.Blocks) != len(m.Digests) {
		return // malformed
	}
	digs := m.Digests
	if n.cfg.TrustedDigests != nil {
		if trusted, ok := n.cfg.TrustedDigests(m.Object); ok {
			if len(trusted) != int(m.Blocks) {
				n.logf("manifest for %d contradicts trusted digests", m.Object)
				return
			}
			digs = trusted
		}
	}
	if _, ok := dl.providers[from]; !ok {
		return // not a provider we asked, or one we caught cheating
	}
	if dl.lanes == nil {
		// The first valid manifest fixes the geometry: block count, digests,
		// and the interleave. Later manifests must agree on the count; their
		// digests are ignored (first writer wins — TrustedDigests, or the
		// mediator's audit, catch liars).
		k := max(1, min(n.cfg.Stripe, len(dl.providers), int(m.Blocks)))
		dl.blocks = make([][]byte, m.Blocks)
		dl.digests = digs
		dl.total = int(m.Blocks)
		dl.lanes = make([]*lane, k)
		for i := range dl.lanes {
			dl.lanes[i] = &lane{}
		}
	} else if int(m.Blocks) != dl.total {
		return // contradicts the fixed geometry
	}
	idx, l := dl.fillingLane(from)
	if l != nil {
		if m.Session == l.session {
			return // duplicate manifest for the live session
		}
		// The origin opened a new session: its old one is dead (a sender
		// only restarts after the previous session ended), and blocks are
		// only accepted from the granted session. Start this lane over on
		// the new one.
		n.clearLane(dl, idx)
	} else if idx, l = dl.freeLane(); l == nil {
		if idx = n.preemptibleLane(dl, from); idx < 0 {
			// Every lane is carried; withdraw the request so the surplus
			// provider does not hold an upload slot for us.
			n.cancel(dl, from)
			return
		}
		n.reassignLane(dl, idx)
	}
	n.grantLane(dl, idx, from, m.Session)
}

// preemptibleLane is the receiving-side mirror of commitRing's upload-slot
// preemption: when every lane is carried and from is the predecessor of a
// committed ring feeding this download, it returns a lane still being filled
// by a non-exchange origin for the exchange to take over, so an exchange
// partner is never turned away in favour of a plain transfer. -1 otherwise.
func (n *Node) preemptibleLane(dl *download, from core.PeerID) int {
	if !n.ringPredecessor(dl.object, from) {
		return -1
	}
	for i, l := range dl.lanes {
		if l.origin != from && !l.verifying && !l.verified {
			return i
		}
	}
	return -1
}

// grantLane assigns lane idx of dl to origin under the session its manifest
// announced and tells the origin so (the grant releases the origin's first
// block).
func (n *Node) grantLane(dl *download, idx int, origin core.PeerID, session uint64) {
	l := dl.lanes[idx]
	l.origin = origin
	l.session = session
	n.stats.StripesGranted++
	perfstats.AddStripeGranted()
	if pc, ok := n.conns[origin]; ok {
		pc.send(&protocol.StripeGrant{
			Object:  dl.object,
			Session: session,
			Stripe:  uint32(idx),
			Stripes: uint32(len(dl.lanes)),
		})
	}
}

// clearLane discards a lane's blocks and progress so the same or another
// origin can fill it again.
func (n *Node) clearLane(dl *download, idx int) {
	l := dl.lanes[idx]
	for i := idx; i < dl.total; i += len(dl.lanes) {
		if dl.blocks[i] != nil {
			dl.blocks[i] = nil
			dl.have--
		}
	}
	l.have, l.lastHave, l.stalled = 0, 0, 0
	l.verifying, l.verified = false, false
}

// reassignLane takes a lane back from its origin (stalled, departed,
// preempted by an exchange, or caught cheating) and frees it for the next
// manifest to claim. The origin gets a Cancel: if its session half-survived,
// the cancel tears it down so a re-request starts a fresh session instead of
// wedging against the stale one.
func (n *Node) reassignLane(dl *download, idx int) {
	l := dl.lanes[idx]
	n.cancel(dl, l.origin)
	n.clearLane(dl, idx)
	l.origin = 0
	l.session = 0
	n.stats.StripesReassigned++
	perfstats.AddStripeReassigned()
}

// dropCheater stops trusting the origin of lane idx (local blacklisting,
// Section III-B): it leaves the provider set, its lane is taken back, and the
// remaining providers are asked to fill it.
func (n *Node) dropCheater(dl *download, idx int) {
	delete(dl.providers, dl.lanes[idx].origin)
	n.reassignLane(dl, idx)
	n.sendRequests(dl)
}

// onBlock accepts one block of a transfer, strictly scoped to the sending
// origin's granted lane and live session.
func (n *Node) onBlock(from core.PeerID, b *protocol.Block) {
	dl := n.downloads[b.Object]
	if dl == nil || int(b.Index) >= dl.total {
		return
	}
	ack := func(ok bool) {
		if pc := n.conns[from]; pc != nil {
			pc.send(&protocol.BlockAck{Object: b.Object, Index: b.Index, Session: b.Session, OK: ok})
		}
	}
	idx, l := dl.laneForSession(from, b.Session)
	if l == nil || l.verifying || l.verified {
		// A straggler: its session no longer fills a lane (it was dropped or
		// reassigned with up to a send window of blocks still on the wire).
		// Nacked, but no evidence against anyone.
		n.stats.BlocksStale++
		ack(false)
		return
	}
	if int(b.Index)%len(dl.lanes) != idx {
		n.stats.BlocksRejected++ // outside the granted lane
		ack(false)
		return
	}
	if !n.blockAcceptable(dl, b) {
		// Junk: nack it and drop the sender, exactly as a failed audit does.
		n.stats.BlocksRejected++
		ack(false)
		n.dropCheater(dl, idx)
		return
	}
	if dl.blocks[b.Index] == nil {
		// The message owns its payload (the codec read it into a buffer of
		// its own; in memory it is the sender's immutable stored block), so
		// the download keeps the slice itself.
		dl.blocks[b.Index] = b.Payload
		dl.have++
		l.have++
		n.stats.BlocksReceived++
	}
	ack(true)
	if l.have == laneSpan(dl.total, len(dl.lanes), idx) {
		n.laneFull(dl, idx)
	}
}

// The verifier — the one thing a mediator changes — has two hooks: a block
// arriving in its lane, and a lane filling up.

// blockAcceptable judges an arriving block. Without a mediator it must be
// plaintext matching its digest. With one it must be sealed; its content
// cannot be judged until the audit releases the key, so it is held as it
// came.
func (n *Node) blockAcceptable(dl *download, b *protocol.Block) bool {
	if n.mediated() {
		return b.Encrypted
	}
	return !b.Encrypted && sha256.Sum256(b.Payload) == dl.digests[b.Index]
}

// laneFull runs when the last block of a lane arrives. Plaintext blocks were
// digest-checked one by one, so the lane is verified; sealed blocks go to
// the mediator's audit (mediated.go), which calls laneVerified if they pass.
func (n *Node) laneFull(dl *download, idx int) {
	if n.mediated() {
		n.startAudit(dl, idx)
		return
	}
	n.laneVerified(dl, idx)
}

// laneVerified marks lane idx done. The download completes when every lane
// has verified.
func (n *Node) laneVerified(dl *download, idx int) {
	dl.lanes[idx].verified = true
	done, unclaimed := true, false
	for _, l := range dl.lanes {
		done = done && l.verified
		unclaimed = unclaimed || l.origin == 0
	}
	if done {
		n.finishDownload(dl)
		return
	}
	if unclaimed {
		// A freed lane is waiting and this origin just became available for
		// it: re-issue the requests so it (or anyone else) can re-manifest
		// and claim the lane now, not a stall timeout later.
		n.sendRequests(dl)
	}
}

func (n *Node) finishDownload(dl *download) {
	// The verified blocks become the stored object as they are, and every
	// one was checked against these digests on its way in.
	n.store[dl.object] = dl.blocks
	n.digests[dl.object] = dl.digests
	n.stats.ObjectsCompleted++
	delete(n.downloads, dl.object)
	for _, ch := range dl.waiters {
		ch <- nil
	}
	// Withdraw outstanding requests.
	for p := range dl.providers {
		n.cancel(dl, p)
	}
	// Rings feeding this download dissolve (the paper's common case: "one
	// side terminates first, when it completes its own download").
	for id, ring := range n.rings {
		if ring.committed && ring.gets() == dl.object {
			n.quitRing(id, "download complete")
		}
	}
	n.tryExchange()
	n.trySchedule()
}

// failDownload gives up on dl: waiters get ErrNoSource with the reason, and
// every provider gets a Cancel so none keeps a session or a queued request
// for a download that no longer exists.
func (n *Node) failDownload(dl *download, reason string) {
	for _, ch := range dl.waiters {
		ch <- fmt.Errorf("%w: object %d%s", ErrNoSource, dl.object, reason)
	}
	dl.waiters = nil
	delete(n.downloads, dl.object)
	for p := range dl.providers {
		n.cancel(dl, p)
	}
}

// tickLanes runs per-lane stall recovery on the maintenance timer: a lane
// whose origin went quiet (preempted us for an exchange, or withdrew) is
// taken back and re-offered, without disturbing the lanes that are
// progressing. Unclaimed lanes periodically re-issue the download's requests
// so a freed lane gets claimed — by a fresh provider, or by an origin that
// has finished its own lane and re-manifests with a new session.
func (n *Node) tickLanes(dl *download) {
	for idx, l := range dl.lanes {
		if l.verified || l.verifying {
			continue
		}
		if l.origin != 0 && l.have != l.lastHave {
			l.lastHave = l.have
			l.stalled = 0
			continue
		}
		l.stalled++
		if l.stalled < n.cfg.StallTicks {
			continue
		}
		l.stalled = 0
		if l.origin != 0 {
			n.logf("lane %d of object %d stalled at origin %d; reassigning", idx, dl.object, l.origin)
			n.reassignLane(dl, idx)
		}
		n.sendRequests(dl)
	}
}

// dropOrigin reassigns, at once, every lane a departed peer was still
// filling; waiting out the stall timer would only delay the same verdict.
// Lanes under audit stay: the mediator holds the key, the origin is not
// needed to finish them.
func (n *Node) dropOrigin(peer core.PeerID) {
	for _, dl := range n.downloads {
		if idx, l := dl.fillingLane(peer); l != nil {
			n.reassignLane(dl, idx)
			n.sendRequests(dl)
		}
	}
}

// tickDownloads re-issues the requests of downloads that made no progress at
// all for StallTicks (sources may never have answered, or every lane went
// quiet at once); after MaxRetries such rounds the download fails.
func (n *Node) tickDownloads() {
	for _, dl := range n.downloads {
		n.tickLanes(dl)
		if dl.auditing() {
			// An in-flight audit is progress; its own bounded retries and
			// failover decide the outcome, not the stall counter.
			continue
		}
		if dl.have != dl.lastHave {
			dl.stalled = 0
			dl.retries = 0
			dl.lastHave = dl.have
			continue
		}
		dl.stalled++
		if dl.stalled < n.cfg.StallTicks {
			continue
		}
		dl.stalled = 0
		dl.retries++
		if len(dl.providers) == 0 || dl.retries > n.cfg.MaxRetries {
			n.failDownload(dl, "")
			continue
		}
		// Start over and let the manifest race re-fix the geometry with
		// whoever is still alive.
		n.resetDownload(dl)
		n.sendRequests(dl)
	}
}

// resetDownload discards a transfer's state — all lanes at once — so the
// download can start over from the next manifest race. Every assigned origin
// gets a Cancel: if its session half-survived (a block in flight we will
// never ack), the cancel tears it down so a re-request starts a fresh
// session instead of wedging against the stale one.
func (n *Node) resetDownload(dl *download) {
	for _, l := range dl.lanes {
		n.cancel(dl, l.origin)
	}
	dl.blocks = nil
	dl.digests = nil
	dl.have = 0
	dl.total = 0
	dl.lastHave = 0
	dl.lanes = nil
}
