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
// receiver submits randomly chosen sample blocks from that lane for audit; a
// released key decrypts the lane and the plaintext is digest-checked block
// by block. The audit is per-origin — each lane's exchange id (sender,
// recipient, object, session) is distinct — so an audit rejection proves
// that one origin cheated, the tier has flagged it, and it costs only its
// own lane.

// medAuditSamples is how many sealed blocks a receiver submits per audit.
const medAuditSamples = 3

func (n *Node) mediated() bool { return n.cfg.Mediator != nil }

// medExchangeID derives the escrow identifier both sides of a transfer
// agree on without negotiation: a hash of (sender, recipient, object,
// session). Scoping it to the recipient keeps concurrent uploads of one
// object to different peers on distinct escrow entries; scoping it to the
// session keeps a sender's successive sessions to one peer distinct too, so
// a re-manifesting origin's second deposit can never overwrite the key an
// in-flight audit of its first session still needs — the mediator would
// unseal session-A samples with session-B's key and flag an honest peer.
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

// startAudit submits one full lane's sample blocks for audit off-loop. The
// audit is per-origin: samples come only from the lane's own indices, and
// the released key opens only that origin's session.
func (n *Node) startAudit(dl *download, idx int) {
	l := dl.lanes[idx]
	l.verifying = true
	n.stats.MedVerifies++
	sender, session, obj := l.origin, l.session, dl.object
	k := len(dl.lanes)
	span := laneSpan(dl.total, k, idx)
	// Sample positions must be unpredictable: a cheater who can guess
	// them serves honest bytes exactly there and junk everywhere else,
	// passing every audit. (The post-decrypt digest check still covers
	// all blocks, but its digests come from the sender's manifest unless
	// TrustedDigests is set — the random audit is the tier-level defense.)
	count := min(medAuditSamples, span, mediator.MaxVerifySamples)
	samples := make([]protocol.Block, 0, count)
	budget := mediator.MaxVerifyBytes
	for _, off := range randomSampleIndices(span, count) {
		bi := idx + off*k // offset within the lane -> absolute block index
		if len(samples) > 0 && budget < len(dl.blocks[bi]) {
			break // stay under the mediator's audit limits
		}
		budget -= len(dl.blocks[bi])
		samples = append(samples, protocol.Block{
			Object:    obj,
			Index:     uint32(bi),
			Origin:    sender,
			Recipient: n.cfg.ID,
			Encrypted: true,
			Payload:   dl.blocks[bi],
		})
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		key, err := n.cfg.Mediator.Verify(medExchangeID(sender, n.cfg.ID, obj, session), n.cfg.ID, sender, obj, samples)
		n.post(func() { n.finishAudit(dl, idx, sender, session, key, err) })
	}()
}

// randomSampleIndices draws count distinct indices in [0, total) from the
// system entropy source; on the (practically impossible) failure of that
// source it falls back to the first count indices rather than not auditing
// at all.
func randomSampleIndices(total, count int) []int {
	out := make([]int, 0, count)
	seen := make(map[int]bool, count)
	var buf [8]byte
	for len(out) < count {
		if _, err := rand.Read(buf[:]); err != nil {
			for i := 0; len(out) < count; i++ {
				if !seen[i] {
					out = append(out, i)
				}
			}
			return out
		}
		idx := int(binary.BigEndian.Uint64(buf[:]) % uint64(total))
		if !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	return out
}

// finishAudit applies one lane's audit verdict back on the event loop.
// Verdicts are matched against the lane's current origin and session:
// anything stale (the lane was reassigned or the download reset while the RPC
// was in flight) is discarded.
func (n *Node) finishAudit(dl *download, idx int, sender core.PeerID, session uint64, key [16]byte, err error) {
	if n.downloads[dl.object] != dl || idx >= len(dl.lanes) {
		return // the download ended, or its geometry was reset, underneath the audit
	}
	l := dl.lanes[idx]
	if l.origin != sender || l.session != session || !l.verifying {
		return // stale verdict; the lane has moved on
	}
	l.verifying = false
	switch {
	case err == nil:
	case errors.Is(err, medclient.ErrRejected):
		// The tier proved this origin cheated and flagged it; drop the junk
		// and the provider, free its lane for whoever is left.
		n.logf("audit of %d for object %d lane %d rejected: %v", sender, dl.object, idx, err)
		n.stats.MedRejects++
		n.dropCheater(dl, idx)
		return
	case errors.Is(err, medclient.ErrBadRequest):
		// The mediator will never judge this audit — the object is outside
		// its registry, or the request exceeds limits no retry changes.
		// Re-transferring would livelock; fail the download.
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
	for i := idx; i < dl.total; i += len(dl.lanes) {
		origin, recipient, plain, oerr := mediator.Open(key, dl.object, uint32(i), dl.blocks[i])
		if oerr != nil || origin != sender || recipient != n.cfg.ID || sha256.Sum256(plain) != dl.digests[i] {
			// The sampled audit passed but the lane does not decrypt clean:
			// treat the origin as a cheater locally.
			n.logf("post-audit validation of block %d from %d failed", i, sender)
			n.stats.MedRejects++
			n.dropCheater(dl, idx)
			return
		}
		dl.blocks[i] = plain
	}
	n.laneVerified(dl, idx)
}
