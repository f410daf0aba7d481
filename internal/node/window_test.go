package node

import (
	"bytes"
	"testing"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/protocol"
	"barter/internal/transport"
)

// rawPeer is a hand-driven receiver: it speaks the wire protocol to one
// holder over the in-memory transport, so a test decides exactly when each
// grant and ack goes out. The window tests read the holder's counters only
// after receiving a block that the message they just sent released; the read
// goes through the holder's event loop behind that handler, so the count is
// exact without sleeping. Listed as a provider, a raw peer is a silent one:
// like a provider whose queue holds the request, it never answers, so the
// download keeps it in its set and stays open while a test hands it other
// providers one at a time.
type rawPeer struct {
	t    *testing.T
	id   core.PeerID
	conn transport.Conn
}

func dialRaw(tn *testNet, id core.PeerID, holder *Node) *rawPeer {
	tn.t.Helper()
	conn, err := tn.tr.Dial(holder.Addr())
	if err != nil {
		tn.t.Fatal(err)
	}
	// A holder that never answers fails the test instead of hanging it.
	watchdog := time.AfterFunc(testTimeout, func() { _ = conn.Close() })
	tn.t.Cleanup(func() {
		watchdog.Stop()
		_ = conn.Close()
	})
	r := &rawPeer{t: tn.t, id: id, conn: conn}
	r.send(&protocol.Hello{Peer: id, Sharing: true})
	waitUntil(tn.t, "the raw peer is registered", func() bool {
		registered := false
		holder.call(func() { _, registered = holder.conns[id] })
		return registered
	})
	return r
}

func (r *rawPeer) send(msg protocol.Message) {
	r.t.Helper()
	if err := r.conn.Send(msg); err != nil {
		r.t.Fatalf("raw peer sending %T: %v", msg, err)
	}
}

// recvRaw returns the next message of type M the holder sends, skipping any
// other traffic (its own requests, for one).
func recvRaw[M protocol.Message](r *rawPeer) M {
	r.t.Helper()
	for {
		msg, err := r.conn.Recv()
		if err != nil {
			var want M
			r.t.Fatalf("raw peer waiting for %T: %v", want, err)
		}
		if m, ok := msg.(M); ok {
			return m
		}
	}
}

// grant waits for the holder's manifest and grants its session lane stripe
// of stripes.
func (r *rawPeer) grant(stripe, stripes uint32) {
	r.t.Helper()
	m := recvRaw[*protocol.Manifest](r)
	r.send(&protocol.StripeGrant{Object: m.Object, Session: m.Session, Stripe: stripe, Stripes: stripes})
}

// refuse waits for the holder's request and answers it as a provider that
// will not serve: with an empty manifest.
func (r *rawPeer) refuse() {
	r.t.Helper()
	req := recvRaw[*protocol.Request](r)
	r.send(&protocol.Manifest{Object: req.Object})
}

func (r *rawPeer) ack(b *protocol.Block) {
	r.t.Helper()
	r.send(&protocol.BlockAck{Object: b.Object, Index: b.Index, Session: b.Session, OK: true})
}

// TestSendWindowBound: a plain session releases exactly sendWindow blocks on
// its grant and, with none acknowledged, nothing more; from then on each ack
// releases exactly one block, the next index of the granted lane.
func TestSendWindowBound(t *testing.T) {
	const stripe, stripes, span = 1, 2, 12 // lane 1 of 2 over 24 blocks: 1, 3, ..., 23
	tn := newTestNet(t)
	holder := tn.spawn(1, nil)
	obj := catalog.ObjectID(3)
	holder.AddObject(obj, payload(obj, stripes*span*1024))
	r := dialRaw(tn, 9, holder)
	r.send(&protocol.Request{Object: obj, Tree: core.Tree{Root: r.id}})
	r.grant(stripe, stripes)

	lane := make([]*protocol.Block, 0, span)
	recv := func() {
		t.Helper()
		b := recvRaw[*protocol.Block](r)
		if want := uint32(stripe + len(lane)*stripes); b.Index != want {
			t.Fatalf("block %d of the lane has index %d, want %d", len(lane), b.Index, want)
		}
		lane = append(lane, b)
	}
	for range sendWindow {
		recv()
	}
	if got := holder.Stats().BlocksSent; got != sendWindow {
		t.Fatalf("the grant released %d blocks with none acknowledged, want the window of %d", got, sendWindow)
	}
	for i := 0; len(lane) < span; i++ {
		r.ack(lane[i])
		recv()
		if got := holder.Stats().BlocksSent; got != len(lane) {
			t.Fatalf("ack %d: holder has sent %d blocks, want exactly one more (%d)", i, got, len(lane))
		}
	}
}

// TestLockStepSessions: the window's two exceptions keep Section III-B's
// block-for-block pace — a paced node, a committed ring session, and a plain
// session adopted into a ring mid-window each have one block in flight.
func TestLockStepSessions(t *testing.T) {
	const ringID = 77
	ox, oy := catalog.ObjectID(100), catalog.ObjectID(200)

	// lockStep acks n blocks one at a time and checks that each ack (after
	// the first block, which the grant released) released exactly one.
	lockStep := func(t *testing.T, holder *Node, r *rawPeer, sentBefore, n int, ring uint64) {
		t.Helper()
		for i := 1; i <= n; i++ {
			b := recvRaw[*protocol.Block](r)
			if b.RingID != ring {
				t.Fatalf("block %d carries ring %d, want %d", b.Index, b.RingID, ring)
			}
			if got := holder.Stats().BlocksSent; got != sentBefore+i {
				t.Fatalf("%d blocks sent with one in flight, want %d", got, sentBefore+i)
			}
			r.ack(b)
		}
	}
	// ringHolder holds ox and wants oy from the raw peer, so it accepts a
	// 2-ring in which it gives ox and gets oy.
	ringHolder := func(t *testing.T) (*Node, *rawPeer) {
		tn := newTestNet(t)
		holder := tn.spawn(1, func(c *Config) { c.StallTicks = 10_000 })
		holder.AddObject(ox, payload(ox, 16*1024))
		r := dialRaw(tn, 9, holder)
		holder.Download(oy, map[core.PeerID]string{9: ""})
		return holder, r
	}
	commit := func(t *testing.T, holder *Node, r *rawPeer) {
		t.Helper()
		r.send(&protocol.RingProbe{RingID: ringID, Members: []protocol.RingMember{
			{Peer: r.id, Gives: oy, Addr: "mem://raw"},
			{Peer: holder.ID(), Gives: ox, Addr: holder.Addr()},
		}})
		if a := recvRaw[*protocol.RingAccept](r); !a.OK {
			t.Fatalf("holder refused the ring: %s", a.Reason)
		}
		r.send(&protocol.RingCommit{RingID: ringID})
	}

	t.Run("paced", func(t *testing.T) {
		tn := newTestNet(t)
		holder := tn.spawn(1, func(c *Config) { c.BlockDelay = time.Millisecond })
		holder.AddObject(ox, payload(ox, 16*1024))
		r := dialRaw(tn, 9, holder)
		r.send(&protocol.Request{Object: ox, Tree: core.Tree{Root: r.id}})
		r.grant(0, 1)
		lockStep(t, holder, r, 0, 4, 0)
	})
	t.Run("ring", func(t *testing.T) {
		holder, r := ringHolder(t)
		commit(t, holder, r)
		r.grant(0, 1)
		lockStep(t, holder, r, 0, 4, ringID)
	})
	t.Run("adopted", func(t *testing.T) {
		holder, r := ringHolder(t)
		r.send(&protocol.Request{Object: ox, Tree: core.Tree{Root: r.id}})
		r.grant(0, 1)
		window := make([]*protocol.Block, sendWindow)
		for i := range window {
			window[i] = recvRaw[*protocol.Block](r)
		}
		// The ring adopts the running session; its window drains before the
		// next block, which is the first exchange block.
		commit(t, holder, r)
		for _, b := range window {
			r.ack(b)
		}
		lockStep(t, holder, r, sendWindow, 4, ringID)
		// One snapshot: the holder may already have answered the last ack.
		if st := holder.Stats(); st.ExchangeBlocksSent != st.BlocksSent-sendWindow {
			t.Fatalf("%d exchange blocks of %d sent, want every block after the plain window", st.ExchangeBlocksSent, st.BlocksSent)
		}
	})
}

// TestCancelOfAdoptedSessionDissolvesRing: the requester cancels a plain
// session that a ring adopted after the Cancel left. The holder must not
// keep the ring committed with its own half gone: it dissolves the ring and
// tells the other member, before it answers anything sent after the Cancel.
func TestCancelOfAdoptedSessionDissolvesRing(t *testing.T) {
	const ringID = 77
	ox, oy, absent := catalog.ObjectID(100), catalog.ObjectID(200), catalog.ObjectID(300)
	tn := newTestNet(t)
	holder := tn.spawn(1, func(c *Config) { c.StallTicks = 10_000 })
	holder.AddObject(ox, payload(ox, 16*1024))
	r := dialRaw(tn, 9, holder)
	r.send(&protocol.Request{Object: ox, Tree: core.Tree{Root: r.id}})
	r.grant(0, 1)
	holder.Download(oy, map[core.PeerID]string{9: ""})
	r.send(&protocol.RingProbe{RingID: ringID, Members: []protocol.RingMember{
		{Peer: r.id, Gives: oy, Addr: "mem://raw"},
		{Peer: holder.ID(), Gives: ox, Addr: holder.Addr()},
	}})
	if a := recvRaw[*protocol.RingAccept](r); !a.OK {
		t.Fatalf("holder refused the ring: %s", a.Reason)
	}
	r.send(&protocol.RingCommit{RingID: ringID})
	r.send(&protocol.Cancel{Object: ox})
	// The holder handles one connection's messages in order, so its refusal
	// of this request comes after whatever the Cancel made it send.
	r.send(&protocol.Request{Object: absent, Tree: core.Tree{Root: r.id}})
	quit := false
	for {
		msg, err := r.conn.Recv()
		if err != nil {
			t.Fatalf("raw peer waiting for the refusal: %v", err)
		}
		if q, ok := msg.(*protocol.RingQuit); ok && q.RingID == ringID {
			quit = true
		}
		if m, ok := msg.(*protocol.Manifest); ok && m.Object == absent {
			break
		}
	}
	if !quit {
		t.Fatal("the holder kept the ring after its session was cancelled: no RingQuit")
	}
	if st := holder.Stats(); st.RingsJoined != 1 || st.RingsDissolved != 1 {
		t.Fatalf("rings joined %d, dissolved %d; want 1 and 1", st.RingsJoined, st.RingsDissolved)
	}
}

// TestBlockAfterDownloadEndsIsStale: a block for an object the node is not
// downloading (its download completed or failed while the block was on the
// wire) is a straggler like any other: nacked and counted stale.
func TestBlockAfterDownloadEndsIsStale(t *testing.T) {
	tn := newTestNet(t)
	n := tn.spawn(1, nil)
	r := dialRaw(tn, 9, n)
	r.send(&protocol.Block{Object: 5, Index: 0, Session: 1, Payload: []byte("late")})
	if a := recvRaw[*protocol.BlockAck](r); a.OK || a.Object != 5 || a.Index != 0 || a.Session != 1 {
		t.Fatalf("ack %+v, want a nack of object 5 block 0 session 1", a)
	}
	if st := n.Stats(); st.BlocksStale != 1 || st.BlocksReceived != 0 || st.BlocksRejected != 0 {
		t.Fatalf("stale %d, received %d, rejected %d; want 1, 0, 0", st.BlocksStale, st.BlocksReceived, st.BlocksRejected)
	}
}

// TestCheaterStragglers: a corrupt origin gets a full window out before the
// receiver judges any of it. Unmediated, its first block fails the digest and
// drops it: that one block counts as rejected, the sendWindow-1 behind it as
// stale — nacked, never stored. Mediated, the sealed lane fills and the audit
// rejects it. Either way the honest holder, standing by until then, refills
// the lane and the bytes match.
func TestCheaterStragglers(t *testing.T) {
	const size = 16 * 1024 // one lane of 16 blocks, twice the window
	forEachDeployment(t, size, func(t *testing.T, mn *medNet) {
		obj := catalog.ObjectID(13)
		data := payload(obj, size)
		// The cheater is the one asked; the honest holder stands by.
		order := askOrder(9, obj, []core.PeerID{1, 2})
		cheaterID, honestID := order[0], order[1]
		cheater := mn.spawnMediated(cheaterID, func(cfg *Config) { cfg.Corrupt = true })
		cheater.AddObject(obj, data)
		honest := mn.spawnMediated(honestID, nil)
		honest.AddObject(obj, data)
		// No stall timer: only the cheater's verdict can move the lane.
		receiver := mn.spawnMediated(9, func(cfg *Config) { cfg.StallTicks = 10_000 })

		ch := receiver.Download(obj, map[core.PeerID]string{cheaterID: cheater.Addr(), honestID: honest.Addr()})
		waitUntil(t, "the cheater is dropped and its window drained", func() bool {
			st := receiver.Stats()
			if mn.cluster != nil {
				return st.MedRejects == 1
			}
			return st.BlocksStale == sendWindow-1
		})
		if err := WaitFor(ch, testTimeout); err != nil {
			t.Fatal(err)
		}
		if got := receiver.Object(obj); !bytes.Equal(got, data) {
			t.Fatal("content mismatch after the cheater's lane was refilled")
		}
		st := receiver.Stats()
		if st.StripesGranted != 2 || st.StripesReassigned != 1 {
			t.Fatalf("lane granted %d times and reassigned %d, want the cheater's then the honest origin's", st.StripesGranted, st.StripesReassigned)
		}
		if mn.cluster != nil {
			if mn.cluster.Flagged(cheaterID) == 0 {
				t.Fatal("mediator tier never flagged the corrupt origin")
			}
			// Sealed blocks are judged by the audit, and all of them were
			// inside the lane when it ran.
			if st.BlocksRejected != 0 || st.BlocksStale != 0 {
				t.Fatalf("mediated: %d blocks rejected, %d stale, want 0 and 0", st.BlocksRejected, st.BlocksStale)
			}
			return
		}
		if got := cheater.Stats().BlocksSent; got != sendWindow {
			t.Fatalf("cheater sent %d blocks, want one window of %d", got, sendWindow)
		}
		if st.BlocksRejected != 1 || st.BlocksStale != sendWindow-1 || st.BlocksReceived != size/1024 {
			t.Fatalf("rejected %d, stale %d, stored %d; want 1, %d, %d", st.BlocksRejected, st.BlocksStale, st.BlocksReceived, sendWindow-1, size/1024)
		}
	})
}
