package mediator_test

import (
	"testing"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
	"barter/internal/protocol"
	"barter/internal/testutil"
	"barter/internal/transport"
)

// waitUntil polls cond until it holds. Replication is asynchronous, so a test
// establishes "the replica has the copy" before it acts on it.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// ownedBy returns an object the fixtures' oracles know whose primary in an
// n-shard tier is shard.
func ownedBy(t *testing.T, shard, n int) catalog.ObjectID {
	t.Helper()
	for obj := catalog.ObjectID(1); obj <= 64; obj++ {
		if p, _ := mediator.ShardFor(obj, n); p == shard {
			return obj
		}
	}
	t.Fatalf("no object in 1..64 has primary %d of %d", shard, n)
	return 0
}

// TestDepositReplicatesWithoutClient is the property the client-side
// write-through could not offer: a deposit sent by hand on a bare connection
// — no medclient anywhere — still reaches the replica's map and its log.
func TestDepositReplicatesWithoutClient(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	tr, cl, _ := durableFixture(t, 2, t.TempDir())
	obj := catalog.ObjectID(3)
	primary, replica := mediator.ShardFor(obj, 2)
	conn, err := tr.Dial(cl.Addrs()[primary])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	key := [16]byte{9, 9, 9}
	if ack, ok := rpc(t, conn, &protocol.MedDeposit{ExchangeID: 77, Sender: 4, Object: obj, Key: key}).(*protocol.MedKey); !ok || ack.Key != key {
		t.Fatalf("deposit not acknowledged: %+v", ack)
	}
	waitUntil(t, "the replica holds the deposit", func() bool { return cl.HoldsEscrow(replica, 77, 4) })
	if cl.HoldsEscrow(replica, 77, 5) {
		t.Fatal("HoldsEscrow ignores the sender")
	}
	// The copy is in the replica's log too: with the primary gone for good,
	// a restarted replica replays it.
	cl.KillShard(primary)
	if err := cl.RestartShard(replica); err != nil {
		t.Fatal(err)
	}
	if !cl.HoldsEscrow(replica, 77, 4) {
		t.Fatal("the replica never logged the written-through deposit")
	}
}

// TestOneWayEnvelope pins the wire's one-way form: a ReqID-0 request is
// applied, is not answered, and leaves the connection serving; an abusive one
// still forfeits it.
func TestOneWayEnvelope(t *testing.T) {
	tr, med, obj, blocks := fixture(t)
	conn, err := tr.Dial("mem://mediator")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	key := [16]byte{5}
	if err := conn.Send(&protocol.Envelope{Msg: &protocol.MedDeposit{ExchangeID: 830, Sender: 1, Object: obj, Key: key}}); err != nil {
		t.Fatal(err)
	}
	// One-way requests are applied in arrival order before the next is read,
	// so the verify finds the key; and rpc fails unless the first message
	// back is the verify's own reply, so the deposit was not answered.
	reply := rpc(t, conn, &protocol.MedVerify{ExchangeID: 830, Requester: 2, Sender: 1, Object: obj, Samples: sealAll(t, key, 1, 2, obj, blocks)[:1]})
	if got, ok := reply.(*protocol.MedKey); !ok || got.Key != key {
		t.Fatalf("verify after a one-way deposit answered %T %+v", reply, reply)
	}
	samples := make([]protocol.Block, mediator.MaxVerifySamples+1)
	for i := range samples {
		samples[i] = protocol.Block{Object: obj, Index: uint32(i), Payload: []byte("x")}
	}
	if err := conn.Send(&protocol.Envelope{Msg: &protocol.MedVerify{ExchangeID: 831, Requester: 2, Sender: 1, Object: obj, Samples: samples}}); err != nil {
		t.Fatal(err)
	}
	if msg, err := conn.Recv(); err == nil {
		t.Fatalf("one-way oversized verify answered with %T, want the connection closed", msg)
	}
	if med.Flagged(1) != 0 {
		t.Fatal("oversized one-way request flagged the claimed sender")
	}
}

// TestServeInflightCap pipelines several times the per-connection cap without
// waiting for a reply: the excess waits in the read loop, and every request
// is still answered exactly once.
func TestServeInflightCap(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	tr, _, obj, _ := fixture(t)
	conn, err := tr.Dial("mem://mediator")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 4 * mediator.MaxInflight
	sent := make(chan error, 1)
	go func() {
		for id := uint64(1); id <= n; id++ {
			if err := conn.Send(&protocol.Envelope{ReqID: id, Msg: &protocol.MedDeposit{ExchangeID: id, Sender: 1, Object: obj, Key: [16]byte{byte(id)}}}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	answered := make(map[uint64]bool, n)
	for len(answered) < n {
		msg, err := conn.Recv()
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", len(answered), n, err)
		}
		env, ok := msg.(*protocol.Envelope)
		if !ok {
			t.Fatalf("bare reply %T", msg)
		}
		ack, ok := env.Msg.(*protocol.MedKey)
		if !ok || ack.ExchangeID != env.ReqID || answered[env.ReqID] {
			t.Fatalf("reply %d: %T %+v (already answered: %v)", env.ReqID, env.Msg, env.Msg, answered[env.ReqID])
		}
		answered[env.ReqID] = true
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestReplicationQueueBound gives a primary a sibling that accepts and never
// reads. The link's connection and then its queue fill; from there every
// record is dropped and counted, deposits are acknowledged as before, no
// goroutine piles up behind the stalled link, and Close still returns.
func TestReplicationQueueBound(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	tr := transport.NewMem()
	deaf, err := tr.Listen("mem://deaf")
	if err != nil {
		t.Fatal(err)
	}
	defer deaf.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		if c, err := deaf.Accept(); err == nil {
			accepted <- c
		}
	}()
	oracle := func(catalog.ObjectID) ([][32]byte, bool) { return nil, false }
	topo := func() []string { return []string{"mem://primary", "mem://deaf"} }
	med, err := mediator.NewShard(tr, "mem://primary", oracle, mediator.ShardOpts{Index: 0, Count: 2, Map: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer med.Close()
	obj := ownedBy(t, 0, 2)
	conn, err := tr.Dial("mem://primary")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The in-memory pipe buffers 64 messages and the sender holds one; past
	// that and the queue, nothing more fits.
	const extra = 100
	var sibling transport.Conn
	for ex := uint64(1); ex <= mediator.ReplQueue+64+1+extra; ex++ {
		if _, ok := rpc(t, conn, &protocol.MedDeposit{ExchangeID: ex, Sender: 1, Object: obj, Key: [16]byte{1}}).(*protocol.MedKey); !ok {
			t.Fatalf("deposit %d not acknowledged behind a stalled sibling", ex)
		}
		if ex == 1 {
			// The link dials on its first record. Wait for that: a sender
			// starved until Close would never dial, and there would be no
			// stalled sibling to test against.
			select {
			case sibling = <-accepted:
			case <-time.After(10 * time.Second):
				t.Fatal("the link never dialed its sibling")
			}
		}
	}
	if n := med.Counts(); n.ReplDropped < extra || n.Replicated > 64 {
		t.Fatalf("stalled sibling: %d dropped (want >= %d), %d sent (want <= 64)", n.ReplDropped, extra, n.Replicated)
	}
	done := make(chan struct{})
	go func() {
		med.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung behind a sibling that never reads")
	}
	sibling.Close()
}

// TestReplicationLinkRedials restarts the sibling over TCP, where it re-binds
// its own port. Nothing is sent meanwhile, so only the link's reader can
// notice: its EOF retires the dead connection, and the next record redials
// the same address and arrives, with nothing dropped. The tier's counts say
// so, and keep saying so once the counting shard is killed.
func TestReplicationLinkRedials(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	oracle := func(catalog.ObjectID) ([][32]byte, bool) { return nil, false }
	cl, err := mediator.NewClusterOpts(transport.TCP{}, []string{"127.0.0.1:0", "127.0.0.1:0"}, oracle, mediator.ClusterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := medclient.New(medclient.Config{Transport: transport.TCP{}, Seeds: cl.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obj := ownedBy(t, 0, 2)
	const sender core.PeerID = 1
	if err := c.Deposit(1, sender, obj, [16]byte{1}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the replica holds the first deposit", func() bool { return cl.HoldsEscrow(1, 1, sender) })
	addr := cl.Addrs()[1]
	if err := cl.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	if got := cl.Addrs()[1]; got != addr {
		t.Fatalf("restart moved the replica from %s to %s", addr, got)
	}
	waitUntil(t, "the link's reader retires the dead connection", func() bool { return !cl.LinkUp(0, 1) })
	if err := c.Deposit(2, sender, obj, [16]byte{2}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the restarted replica holds the second deposit", func() bool { return cl.HoldsEscrow(1, 2, sender) })
	// The sender counts a record once its Send returns, which the replica's
	// apply can beat.
	waitUntil(t, "both records are counted as sent", func() bool { return cl.Counts().Replicated == 2 })
	if n := cl.Counts(); n != (mediator.Counts{Replicated: 2}) {
		t.Fatalf("the tier counted %+v across the sibling's restart, want 2 sent and none dropped", n)
	}
	// The tier's counts outlive the shard that made them.
	cl.KillShard(0)
	if n := cl.Counts(); n != (mediator.Counts{Replicated: 2}) {
		t.Fatalf("killing the primary left the tier's counts at %+v", n)
	}
}
