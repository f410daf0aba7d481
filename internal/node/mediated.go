package node

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
	"barter/internal/protocol"
)

// The mediated verifier of Section III-B: what Config.Mediator adds to the
// lane scheduler (lanes.go). Everything here runs on the node's event loop
// except the escrow and audit RPCs, which block on the mediator tier and
// therefore run on their own goroutines, posting their results back.
//
// Sender side: an upload session escrows a fresh random key with the owning
// mediator shard — the first block waits for the deposit's ack as well as
// for the receiver's grant — and seals each block, payload plus the
// origin/recipient control header, under it.
//
// Receiver side: sealed blocks are held as they came. When a lane fills, the
// receiver sends the tier one receipt per block of the lane — its index and
// a copy of its sealed control header — and the tier, having checked every
// header against the claim, releases the key with the registry's digest of
// every block. The receiver decrypts the lane in place and checks each block
// against those digests; a block that fails is sealed again and submitted as
// a full sample, the evidence on which the tier flags its sender. The audit
// is per-origin — each lane's exchange id (sender, recipient, object,
// session) is distinct — so a rejection proves that one origin cheated, and
// it costs only its own lane.

func (n *Node) mediated() bool { return n.cfg.Mediator != nil }

// medExchangeID derives the escrow identifier both sides of a transfer
// agree on without negotiation: a hash of (sender, recipient, object,
// session). Scoping it to the recipient keeps concurrent uploads of one
// object to different peers on distinct escrow entries; scoping it to the
// session keeps a sender's successive sessions to one peer distinct too, so
// a re-manifesting origin's second deposit can never overwrite the key an
// in-flight audit of its first session still needs — the mediator would
// open session-A receipts with session-B's key and flag an honest peer.
func medExchangeID(sender, recipient core.PeerID, obj catalog.ObjectID, session uint64) uint64 {
	h := uint64(uint32(sender))
	h = (h ^ uint64(uint32(recipient))*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h = (h ^ uint64(uint32(obj))*0x94d049bb133111eb) ^ h>>29
	h = (h ^ session) * 0xbf58476d1ce4e5b9
	return h ^ h>>32
}

// newSession draws a fresh random session id and seal key for one upload
// session. The session id travels in the clear on every manifest, block, and
// ack, so neither side ever mixes traffic from a sender's dead session into a
// live one. The key matters only with a mediator; it is secret to the sender
// until the mediator releases it: receivers earn it by passing the audit,
// never by computing it. (A derivable key would let any peer decrypt without
// auditing — and forge evidence against others.)
func newSession() (session uint64, key [16]byte, ok bool) {
	var buf [24]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return 0, key, false
	}
	copy(key[:], buf[:16])
	return binary.BigEndian.Uint64(buf[16:]), key, true
}

// startEscrow runs the sender's deposit off-loop and releases the first
// block once the mediator acknowledged the escrow. Until then the upload
// exists but sends nothing; a failed deposit drops the session (the
// requester's entry stays queued, so a later schedule retries).
func (n *Node) startEscrow(u *upload) {
	key := upKey{to: u.to, object: u.object}
	exchange := medExchangeID(n.cfg.ID, u.to, u.object, u.session)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		err := n.cfg.Mediator.Deposit(exchange, n.cfg.ID, u.object, u.sealKey)
		n.post(func() {
			cur, ok := n.uploads[key]
			if !ok || cur != u {
				return // session ended while the deposit was in flight
			}
			if err != nil {
				n.logf("escrow for object %d failed: %v", u.object, err)
				delete(n.uploads, key)
				n.trySchedule()
				return
			}
			u.escrowed = true
			n.fill(u)
		})
	}()
}

// sealPayload wraps block u.sent of a mediated upload.
func (n *Node) sealPayload(u *upload, payload []byte) ([]byte, bool) {
	sealed, err := mediator.Seal(u.sealKey, n.cfg.ID, u.to, u.object, u.sent, payload)
	if err != nil {
		n.logf("seal block %d of %d: %v", u.sent, u.object, err)
		return nil, false
	}
	return sealed, true
}

// sealedHeaderLen is the sealed control header that opens every sealed
// block and that a receipt copies.
const sealedHeaderLen = len(protocol.Receipt{}.Header)

// startAudit sends one full lane's receipts for audit off-loop. The audit is
// per-origin: the receipts cover only the lane's own indices, and the
// released key opens only that origin's session. The receipts are copies, so
// the lane's blocks stay the receiver's alone while the tier reads them.
func (n *Node) startAudit(dl *download, idx int) {
	l := dl.lanes[idx]
	l.verifying = true
	n.stats.MedVerifies++
	sender, session, obj, total := l.origin, l.session, dl.object, dl.total
	k := len(dl.lanes)
	receipts := make([]protocol.Receipt, 0, laneSpan(total, k, idx))
	for i := idx; i < total; i += k {
		rc := protocol.Receipt{Index: uint32(i)}
		copy(rc.Header[:], dl.blocks[i])
		receipts = append(receipts, rc)
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		key, digests, err := n.cfg.Mediator.Audit(medExchangeID(sender, n.cfg.ID, obj, session), n.cfg.ID, sender, obj, nil, receipts, total)
		n.post(func() { n.finishAudit(dl, idx, sender, session, key, digests, err) })
	}()
}

// awaitedLane returns lane idx of dl when it still awaits a verdict on
// sender's session, and clears its verifying mark. A verdict that arrives
// after the lane was reassigned or the download ended is stale: nil.
func (n *Node) awaitedLane(dl *download, idx int, sender core.PeerID, session uint64) *lane {
	if n.downloads[dl.object] != dl {
		return nil // the download ended underneath the audit
	}
	l := dl.lanes[idx]
	if l.origin != sender || l.session != session || !l.verifying {
		return nil // the lane has moved on
	}
	l.verifying = false
	return l
}

// finishAudit applies one lane's audit verdict back on the event loop.
func (n *Node) finishAudit(dl *download, idx int, sender core.PeerID, session uint64, key [16]byte, digests [][32]byte, err error) {
	l := n.awaitedLane(dl, idx, sender, session)
	if l == nil {
		return
	}
	switch {
	case err == nil:
	case errors.Is(err, medclient.ErrRejected):
		// The tier proved this origin cheated and flagged it; drop the junk
		// and the provider, free its lane for whoever is left.
		n.logf("audit of %d for object %d lane %d rejected: %v", sender, dl.object, idx, err)
		n.stats.MedRejects++
		n.dropProvider(dl, sender)
		return
	case errors.Is(err, medclient.ErrBadRequest):
		// The mediator will never judge this audit — the object is outside
		// its registry, the registry counts other blocks than the manifest
		// that fixed the geometry, or the request exceeds limits no retry
		// changes. Re-transferring would livelock; fail the download.
		n.logf("audit for object %d unjudgeable: %v", dl.object, err)
		n.failDownload(dl, fmt.Sprintf(": mediated audit refused: %v", err))
		return
	default:
		// Transient: the escrow is missing (shard restarted) or the tier was
		// unreachable. Keep the provider — a fresh session deposits a fresh
		// escrow and can reclaim the lane.
		n.logf("audit for object %d lane %d inconclusive: %v", dl.object, idx, err)
		n.reassignLane(dl, idx)
		n.sendRequests(dl)
		return
	}
	// The tier opened every receipt, so every header here names this origin,
	// this receiver and its own position; what is left to check is content.
	for j, i := 0, idx; i < dl.total; j, i = j+1, i+len(dl.lanes) {
		blk := dl.blocks[i]
		mediator.Crypt(key, dl.object, uint32(i), blk)
		plain := blk[sealedHeaderLen:]
		if sha256.Sum256(plain) != digests[j] {
			mediator.Crypt(key, dl.object, uint32(i), blk) // sealed again, as it came
			l.verifying = true
			n.submitEvidence(dl, idx, sender, session, protocol.Block{
				Object:    dl.object,
				Index:     uint32(i),
				Origin:    sender,
				Recipient: n.cfg.ID,
				Encrypted: true,
				Payload:   blk,
			})
			return
		}
		dl.blocks[i] = plain
	}
	n.laneVerified(dl, idx)
}

// submitEvidence sends a block of lane idx that failed its digest check to
// the tier as one full sample, off-loop: the tier audits its content and
// flags the sender. The lane stays under audit until the verdict is back,
// so the flag is on record before the lane is offered to anyone else.
func (n *Node) submitEvidence(dl *download, idx int, sender core.PeerID, session uint64, sample protocol.Block) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_, err := n.cfg.Mediator.Verify(medExchangeID(sender, n.cfg.ID, sample.Object, session), n.cfg.ID, sender, sample.Object, []protocol.Block{sample})
		n.post(func() { n.finishEvidence(dl, idx, sender, session, sample.Index, err) })
	}()
}

// finishEvidence drops the origin of a lane whose block failed its digest
// check, once the tier has judged the evidence. The block is junk whatever
// the verdict; one that does not uphold it only goes to the log.
func (n *Node) finishEvidence(dl *download, idx int, sender core.PeerID, session uint64, index uint32, err error) {
	if n.awaitedLane(dl, idx, sender, session) == nil {
		return
	}
	if !errors.Is(err, medclient.ErrRejected) {
		n.logf("evidence against %d for object %d block %d not upheld: %v", sender, dl.object, index, err)
	}
	n.stats.MedRejects++
	n.dropProvider(dl, sender)
}
