package node

import (
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/protocol"
	"barter/internal/transport"
)

// Everything in this file runs on the node's event loop.

// ringPendingTTL ages out stuck ring negotiations, in ticks.
const ringPendingTTL = 20

// --- connections ------------------------------------------------------------

func (n *Node) registerConn(hello protocol.Hello, conn transport.Conn) {
	if old, ok := n.conns[hello.Peer]; ok {
		if old.conn == conn {
			old.sharing = hello.Sharing
			return
		}
		// Simultaneous dials produce two connections. Both sides must
		// agree which one carries outbound traffic, or they would close
		// each other's transfers mid-flight: the connection dialed by the
		// lower peer id wins. The loser stays open for receiving (its
		// reader keeps feeding the loop) but is never mapped for sending.
		if n.cfg.ID < hello.Peer {
			return // our outbound connection wins; leave the map alone
		}
	}
	pc := &peerConn{
		n:       n,
		id:      hello.Peer,
		conn:    conn,
		sendQ:   make(chan protocol.Message, sendQueue),
		sharing: hello.Sharing,
	}
	n.conns[hello.Peer] = pc
	n.wg.Add(1)
	go n.writeLoop(pc)
}

func (n *Node) dropConnIf(peer core.PeerID, conn transport.Conn) {
	pc, ok := n.conns[peer]
	if !ok || pc.conn != conn {
		return
	}
	delete(n.conns, peer)
	// Uploads to the departed peer cannot proceed.
	for k, u := range n.uploads {
		if u.to == peer {
			delete(n.uploads, k)
		}
	}
	// Its queued requests are void.
	n.removeIRQ(func(e *irqEntry) bool { return e.peer == peer })
	// Rings containing the peer dissolve ("transfers are terminated if one
	// of the two communicating peers disconnects").
	for id, ring := range n.rings {
		for _, m := range ring.members {
			if m.Peer == peer {
				n.quitRing(id, "member disconnected")
				break
			}
		}
	}
	// Lanes it was filling for us go back to the remaining providers.
	n.dropOrigin(peer)
	n.trySchedule()
}

// getConn returns a live connection to peer, dialing if needed. addrHint, if
// non-empty, is tried before the lookup service; a hint that no longer
// answers (the peer restarted at a new address) falls back to it, so a
// download's re-requests reach a provider that moved.
func (n *Node) getConn(peer core.PeerID, addrHint string) *peerConn {
	if pc, ok := n.conns[peer]; ok {
		return pc
	}
	addr := addrHint
	if addr == "" {
		addr, _ = n.cfg.Lookup(peer)
	}
	if addr == "" {
		return nil
	}
	conn, err := n.cfg.Transport.Dial(addr)
	if err != nil && addrHint != "" {
		if fresh, ok := n.cfg.Lookup(peer); ok && fresh != addrHint {
			addr = fresh
			conn, err = n.cfg.Transport.Dial(addr)
		}
	}
	if err != nil {
		n.logf("dial %d at %s: %v", peer, addr, err)
		return nil
	}
	if !n.track(conn) {
		_ = conn.Close() // node is shutting down
		return nil
	}
	pc := &peerConn{n: n, id: peer, conn: conn, sendQ: make(chan protocol.Message, sendQueue)}
	n.conns[peer] = pc
	n.wg.Add(2)
	go n.serveConn(conn, peer, true)
	go n.writeLoop(pc)
	pc.send(&protocol.Hello{Peer: n.cfg.ID, Sharing: n.cfg.Share})
	return pc
}

// sendQueue bounds each connection's outbound message queue. A live peer's
// writer keeps it far below 1024 — node.send_overflows is 0 on every
// benchmark workload — so reaching the bound means a stopped consumer.
const sendQueue = 1024

// send enqueues without blocking the event loop. The queue is bounded
// (sendQueue); the writer goroutine drains it against the transport's own
// backpressure, so an overflow means the peer has stopped consuming and the
// connection is treated as dead (Stats.SendOverflows) rather than buffered
// without limit.
func (pc *peerConn) send(msg protocol.Message) {
	select {
	case pc.sendQ <- msg:
	default:
		pc.n.stats.SendOverflows++
		_ = pc.conn.Close()
	}
}

// --- dispatch ---------------------------------------------------------------

func (n *Node) handle(from core.PeerID, msg protocol.Message) {
	switch m := msg.(type) {
	case *protocol.Request:
		n.onRequest(from, m)
	case *protocol.Cancel:
		n.onCancel(from, m)
	case *protocol.Manifest:
		n.onManifest(from, m)
	case *protocol.Block:
		n.onBlock(from, m)
	case *protocol.BlockAck:
		n.onBlockAck(from, m)
	case *protocol.StripeGrant:
		n.onStripeGrant(from, m)
	case *protocol.RingProbe:
		n.onRingProbe(from, m)
	case *protocol.RingAccept:
		n.onRingAccept(from, m)
	case *protocol.RingCommit:
		n.onRingCommit(from, m)
	case *protocol.RingAbort:
		delete(n.rings, m.RingID)
	case *protocol.RingQuit:
		n.onRingQuit(m.RingID)
	default:
		n.logf("unhandled %T from %d", msg, from)
	}
}

// --- serving ------------------------------------------------------------------

// onRequest queues a request, or refuses it with an empty manifest when this
// node will not serve the object: a free-rider serves nobody, and nobody
// serves what it does not hold.
func (n *Node) onRequest(from core.PeerID, m *protocol.Request) {
	if _, ok := n.store[m.Object]; !ok || !n.cfg.Share {
		if pc := n.conns[from]; pc != nil {
			pc.send(&protocol.Manifest{Object: m.Object})
		}
		return
	}
	for _, e := range n.irq {
		if e.peer == from && e.object == m.Object {
			return // one registered request per (peer, object)
		}
	}
	// The tree is kept as received, malformed or not: requestTree's
	// BuildTree drops whatever in it does not hang together.
	n.irq = append(n.irq, &irqEntry{peer: from, object: m.Object, tree: &m.Tree})
	// "On receipt of each request [the peer inspects] the incoming request
	// tree associated with it."
	n.tryExchange()
	n.trySchedule()
}

// onCancel ends the requester's session. A Cancel sent for a plain session
// can arrive after a ring adopted it (startUpload): the ring has then lost
// this member's half, so it is dissolved and every member reschedules.
func (n *Node) onCancel(from core.PeerID, m *protocol.Cancel) {
	n.removeIRQ(func(e *irqEntry) bool { return e.peer == from && e.object == m.Object })
	key := upKey{to: from, object: m.Object}
	if u := n.uploads[key]; u != nil && u.ringID != 0 {
		n.quitRing(u.ringID, "its session was cancelled")
	}
	delete(n.uploads, key)
	n.trySchedule()
}

func (n *Node) removeIRQ(drop func(*irqEntry) bool) {
	kept := n.irq[:0]
	for _, e := range n.irq {
		if !drop(e) {
			kept = append(kept, e)
		}
	}
	n.irq = kept
}

// requestTree builds this node's request tree from its IRQ. A tree for the
// ring search (search = true) skips requests already committed to an
// exchange; requests being served as plain transfers stay searchable so a
// newly feasible ring can replace ("upgrade") the plain session, exactly as
// the paper's exchanges displace normal transfers.
func (n *Node) requestTree(search bool) *core.Tree {
	entries := make([]core.IRQEntry, 0, len(n.irq))
	for _, e := range n.irq {
		if u, busy := n.uploads[upKey{to: e.peer, object: e.object}]; search && busy && u.ringID != 0 {
			continue
		}
		entries = append(entries, core.IRQEntry{Requester: e.peer, Object: e.object, Attached: e.tree})
	}
	return core.BuildTree(n.cfg.ID, entries, core.DefaultMaxRing)
}

// ringFed reports whether a committed ring is already delivering obj to us.
func (n *Node) ringFed(obj catalog.ObjectID) bool {
	for _, r := range n.rings {
		if r.committed && r.gets() == obj {
			return true
		}
	}
	return false
}

// ringPredecessor reports whether peer is the member delivering obj to us in
// a committed ring.
func (n *Node) ringPredecessor(obj catalog.ObjectID, peer core.PeerID) bool {
	for _, r := range n.rings {
		if r.committed && r.gets() == obj && r.predecessor().Peer == peer {
			return true
		}
	}
	return false
}

// trySchedule grants spare upload capacity to waiting non-exchange requests,
// oldest first (exchange uploads are created by ring commits and preempt).
func (n *Node) trySchedule() {
	if !n.cfg.Share {
		return
	}
	for len(n.uploads) < n.cfg.UploadSlots {
		var pick *irqEntry
		for _, e := range n.irq {
			if _, busy := n.uploads[upKey{to: e.peer, object: e.object}]; busy {
				continue
			}
			if _, have := n.store[e.object]; !have {
				continue
			}
			pick = e
			break
		}
		if pick == nil {
			return
		}
		if !n.startUpload(pick.peer, pick.object, 0, "") {
			// Cannot reach the requester; drop the entry so the queue
			// does not wedge.
			n.removeIRQ(func(e *irqEntry) bool { return e == pick })
		}
	}
}

// startUpload begins a transfer session and pushes its manifest; the first
// block follows once the receiver grants the session a lane (and, with a
// mediator, the session key is in escrow). ringID 0 marks non-exchange.
func (n *Node) startUpload(to core.PeerID, obj catalog.ObjectID, ringID uint64, addrHint string) bool {
	if existing, ok := n.uploads[upKey{to: to, object: obj}]; ok {
		// A session for this link already runs; adopt it into the ring
		// rather than restarting the transfer ("normal transfer sessions
		// tend to be canceled and replaced by exchanges" — here replacement
		// keeps the progress).
		if ringID != 0 && existing.ringID == 0 {
			existing.ringID = ringID
		}
		return true
	}
	pc := n.getConn(to, addrHint)
	if pc == nil {
		return false
	}
	digs := n.digests[obj]
	total := uint32(len(digs))
	if total == 0 {
		return false
	}
	session, sealKey, ok := newSession()
	if !ok {
		return false
	}
	n.upSeq++
	u := &upload{to: to, object: obj, ringID: ringID, seq: n.upSeq, total: total, session: session, sealKey: sealKey, escrowed: !n.mediated()}
	n.uploads[upKey{to: to, object: obj}] = u
	pc.send(&protocol.Manifest{Object: obj, Size: uint64(objectSize(n.store[obj])), Blocks: total, Session: session, Digests: digs})
	if n.mediated() {
		n.startEscrow(u)
	}
	if ringID == 0 {
		n.stats.RequestsServed++
	}
	return true
}

// onStripeGrant places an upload in the receiver's interleave: the session
// serves block indices congruent to Stripe modulo Stripes, starting at
// Stripe.
func (n *Node) onStripeGrant(from core.PeerID, g *protocol.StripeGrant) {
	u, ok := n.uploads[upKey{to: from, object: g.Object}]
	if !ok || g.Session != u.session {
		return // no such session (or a stale grant for a dead one)
	}
	if g.Stripes == 0 || g.Stripe >= g.Stripes || u.granted {
		return
	}
	u.granted = true
	u.next, u.sent, u.stride = g.Stripe, g.Stripe, g.Stripes
	n.fill(u)
}

// sendWindow is how many blocks a plain upload session may have sent and not
// yet had acknowledged. 8 is where the send-window sweep of docs/PERF.md
// (PR 25) stops paying on both live workloads: 4 leaves half the ack round
// trips exposed; 16 buys a few percent more on whole-object downloads,
// nothing on striped lanes of 5–6 blocks, and doubles the blocks a dropped
// cheater's session wastes.
const sendWindow = 8

// window is the one place an upload's in-flight limit is decided. Exchange
// sessions keep Section III-B's lock-step — one block per acknowledgement,
// so a cheating partner gains at most one block — and a plain session
// adopted into a ring shrinks to it before its next send. Paced nodes keep
// one block in flight too: there the modelled slot rate sets the pace, not
// the ack round trip. Every other session may run sendWindow ahead.
func (n *Node) window(u *upload) int {
	if u.ringID != 0 || n.cfg.BlockDelay > 0 {
		return 1
	}
	return sendWindow
}

// fill is the one send path: it releases an upload's blocks while its window
// has room and blocks remain, once its gates are open — the receiver has
// granted a lane and, with a mediator, the escrow deposit is acknowledged.
// The grant, the escrow ack and every block ack call it; whichever gate
// opens second releases the first blocks.
func (n *Node) fill(u *upload) {
	if !u.escrowed || !u.granted {
		return
	}
	if u.next >= u.total {
		// An empty lane (more lanes than blocks); nothing to send.
		delete(n.uploads, upKey{to: u.to, object: u.object})
		n.trySchedule()
		return
	}
	pc, ok := n.conns[u.to]
	for ok && u.inFlight < n.window(u) && u.sent < u.total {
		ok = n.sendNextBlock(u, pc)
	}
}

// sendNextBlock sends block u.sent; false means the session was dropped.
func (n *Node) sendNextBlock(u *upload, pc *peerConn) bool {
	payload := n.store[u.object][u.sent]
	if n.cfg.Corrupt {
		junk := make([]byte, len(payload))
		for i := range junk {
			junk[i] = byte(i) ^ 0xAA
		}
		payload = junk
	}
	encrypted := false
	if n.mediated() {
		sealed, ok := n.sealPayload(u, payload)
		if !ok {
			delete(n.uploads, upKey{to: u.to, object: u.object})
			n.trySchedule()
			return false
		}
		payload, encrypted = sealed, true
	}
	pc.send(&protocol.Block{
		Object:    u.object,
		Index:     u.sent,
		RingID:    u.ringID,
		Session:   u.session,
		Origin:    n.cfg.ID,
		Recipient: u.to,
		Encrypted: encrypted,
		Payload:   payload,
	})
	u.sent += u.stride
	u.inFlight++
	n.stats.BlocksSent++
	if u.ringID != 0 {
		n.stats.ExchangeBlocksSent++
	}
	return true
}

// onBlockAck retires the oldest unacknowledged block. Acks come back in send
// order (one connection, one receiver loop), so anything but u.next is stale.
func (n *Node) onBlockAck(from core.PeerID, a *protocol.BlockAck) {
	key := upKey{to: from, object: a.Object}
	u, ok := n.uploads[key]
	if !ok || a.Index != u.next || a.Session != u.session {
		return // stale, or addressed to a dead session of ours; never advance on it
	}
	u.inFlight--
	if !a.OK {
		// The receiver rejected our block (it thinks we cheat, or its
		// digest source disagrees); stop the session.
		delete(n.uploads, key)
		n.trySchedule()
		return
	}
	u.next += u.stride
	if u.next >= u.total {
		delete(n.uploads, key)
		n.removeIRQ(func(e *irqEntry) bool { return e.peer == from && e.object == a.Object })
		n.trySchedule()
		return
	}
	if n.cfg.BlockDelay <= 0 {
		n.fill(u)
		return
	}
	// Paced slot: release the next block after the configured delay,
	// re-checking that the session still exists when the timer fires.
	time.AfterFunc(n.cfg.BlockDelay, func() {
		n.post(func() {
			if cur, ok := n.uploads[key]; ok && cur == u {
				n.fill(u)
			}
		})
	})
}

// --- exchange rings ------------------------------------------------------------

// pendingInitiations reports whether a probe round is already in flight; a
// new search waits for it to settle.
func (n *Node) pendingInitiations() bool {
	for _, r := range n.rings {
		if r.initiator && !r.committed {
			return true
		}
	}
	return false
}

// tryExchange searches this node's request tree for a ring and initiates
// the probe round if one is found.
func (n *Node) tryExchange() {
	if !n.cfg.Share || !n.cfg.Policy.SearchesExchanges() {
		return
	}
	if len(n.irq) == 0 || len(n.downloads) == 0 || n.pendingInitiations() {
		return
	}
	wants := make([]core.Want, 0, len(n.downloads))
	for obj, dl := range n.downloads {
		if n.ringFed(obj) {
			continue // an exchange is already feeding this want
		}
		wants = append(wants, core.Want{Object: obj, Providers: dl.order})
	}
	if len(wants) == 0 {
		return
	}
	ring, _, _, ok := core.FindRing(n.requestTree(true), wants, n.cfg.Policy)
	if !ok {
		return
	}
	if _, have := n.store[ring.Members[0].Gives]; !have {
		return
	}
	n.initiateRing(ring)
}

func (n *Node) initiateRing(r *core.Ring) {
	members := make([]protocol.RingMember, len(r.Members))
	for i, m := range r.Members {
		addr := ""
		if m.Peer == n.cfg.ID {
			addr = n.Addr()
		} else if a, ok := n.cfg.Lookup(m.Peer); ok {
			addr = a
		} else {
			return // cannot address every member; abandon
		}
		members[i] = protocol.RingMember{Peer: m.Peer, Gives: m.Gives, Addr: addr}
	}
	n.ringSeq++
	id := n.ringSeq<<32 | uint64(uint32(n.cfg.ID))
	info := &ringInfo{id: id, members: members, myIdx: 0, initiator: true, accepts: make(map[core.PeerID]bool)}
	n.rings[id] = info
	n.stats.RingsInitiated++
	for _, m := range members[1:] {
		pc := n.getConn(m.Peer, m.Addr)
		if pc == nil {
			delete(n.rings, id)
			return
		}
		pc.send(&protocol.RingProbe{RingID: id, Members: members})
	}
	n.logf("probing ring %d: %v", id, members)
}

// predecessor is the member that uploads to this one in the ring.
func (r *ringInfo) predecessor() protocol.RingMember {
	return r.members[(r.myIdx-1+len(r.members))%len(r.members)]
}

// gets returns the object this member receives in the ring.
func (r *ringInfo) gets() catalog.ObjectID { return r.predecessor().Gives }

func (n *Node) onRingProbe(from core.PeerID, m *protocol.RingProbe) {
	reply := func(ok bool, reason string) {
		if pc := n.conns[from]; pc != nil {
			pc.send(&protocol.RingAccept{RingID: m.RingID, OK: ok, Reason: reason})
		}
	}
	myIdx := -1
	for i, member := range m.Members {
		if member.Peer == n.cfg.ID {
			myIdx = i
		}
	}
	if myIdx < 0 || len(m.Members) < 2 {
		reply(false, "not a member")
		return
	}
	info := &ringInfo{id: m.RingID, members: m.Members, myIdx: myIdx}
	if !n.cfg.Share {
		reply(false, "not sharing")
		return
	}
	if _, have := n.store[m.Members[myIdx].Gives]; !have {
		reply(false, "object gone")
		return
	}
	if n.downloads[info.gets()] == nil {
		reply(false, "no longer wanted")
		return
	}
	if n.ringFed(info.gets()) {
		reply(false, "already exchanging for this object")
		return
	}
	n.rings[m.RingID] = info
	reply(true, "")
}

func (n *Node) onRingAccept(from core.PeerID, m *protocol.RingAccept) {
	ring, ok := n.rings[m.RingID]
	if !ok || !ring.initiator || ring.committed {
		return
	}
	if !m.OK {
		n.logf("ring %d rejected by %d: %s", m.RingID, from, m.Reason)
		n.abortRing(ring)
		return
	}
	ring.accepts[from] = true
	if len(ring.accepts) == len(ring.members)-1 {
		for _, member := range ring.members[1:] {
			if pc := n.getConn(member.Peer, member.Addr); pc != nil {
				pc.send(&protocol.RingCommit{RingID: m.RingID})
			}
		}
		n.commitRing(ring)
	}
}

func (n *Node) onRingCommit(_ core.PeerID, m *protocol.RingCommit) {
	ring, ok := n.rings[m.RingID]
	if !ok || ring.committed {
		return
	}
	n.commitRing(ring)
}

// commitRing starts this member's upload to its ring successor, preempting a
// non-exchange upload if the slots are full ("these slots will be reclaimed
// as soon as another exchange becomes possible"). Like the simulator, it
// preempts the most recently started one: that sacrifices the least
// accumulated work.
func (n *Node) commitRing(ring *ringInfo) {
	ring.committed = true
	ring.age = 0
	n.stats.RingsJoined++
	if len(n.uploads) >= n.cfg.UploadSlots {
		var youngest *upload
		for _, u := range n.uploads {
			if u.ringID == 0 && (youngest == nil || u.seq > youngest.seq) {
				youngest = u
			}
		}
		if youngest != nil {
			delete(n.uploads, upKey{to: youngest.to, object: youngest.object})
			n.stats.Preemptions++
		}
	}
	succ := ring.members[(ring.myIdx+1)%len(ring.members)]
	me := ring.members[ring.myIdx]
	if !n.startUpload(succ.Peer, me.Gives, ring.id, succ.Addr) {
		n.quitRing(ring.id, "successor unreachable")
	}
}

func (n *Node) abortRing(ring *ringInfo) {
	for _, m := range ring.members[1:] {
		if pc := n.conns[m.Peer]; pc != nil {
			pc.send(&protocol.RingAbort{RingID: ring.id})
		}
	}
	delete(n.rings, ring.id)
}

// quitRing dissolves a ring: notify every other member and stop our ring
// upload.
func (n *Node) quitRing(id uint64, reason string) {
	ring, ok := n.rings[id]
	if !ok {
		return
	}
	n.logf("quitting ring %d: %s", id, reason)
	delete(n.rings, id)
	n.stats.RingsDissolved++
	for i, m := range ring.members {
		if i == ring.myIdx {
			continue
		}
		if pc := n.getConn(m.Peer, m.Addr); pc != nil {
			pc.send(&protocol.RingQuit{RingID: id})
		}
	}
	for k, u := range n.uploads {
		if u.ringID == id {
			delete(n.uploads, k)
		}
	}
	n.trySchedule()
}

func (n *Node) onRingQuit(id uint64) {
	if _, ok := n.rings[id]; !ok {
		return
	}
	delete(n.rings, id)
	n.stats.RingsDissolved++
	for k, u := range n.uploads {
		if u.ringID == id {
			delete(n.uploads, k)
		}
	}
	n.trySchedule()
}

// --- maintenance ---------------------------------------------------------------

func (n *Node) onTick() {
	// Age out stuck ring negotiations.
	for id, ring := range n.rings {
		if ring.committed {
			continue
		}
		ring.age++
		if ring.age > ringPendingTTL {
			if ring.initiator {
				n.abortRing(ring)
			} else {
				delete(n.rings, id)
			}
		}
	}
	for _, dl := range n.downloads {
		n.tickDownload(dl)
	}
	n.tryExchange()
	n.trySchedule()
}
