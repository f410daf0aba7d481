package mediator_test

import (
	"crypto/sha256"
	"errors"
	"testing"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
	"barter/internal/protocol"
	"barter/internal/testutil"
	"barter/internal/transport"
)

func TestShardForDeterministicAndBalanced(t *testing.T) {
	const shards = 4
	counts := make([]int, shards)
	for obj := 1; obj <= 4000; obj++ {
		p1, r1 := mediator.ShardFor(catalog.ObjectID(obj), shards)
		p2, r2 := mediator.ShardFor(catalog.ObjectID(obj), shards)
		if p1 != p2 || r1 != r2 {
			t.Fatalf("ShardFor(%d) not deterministic: (%d,%d) vs (%d,%d)", obj, p1, r1, p2, r2)
		}
		if p1 < 0 || p1 >= shards || r1 < 0 || r1 >= shards {
			t.Fatalf("ShardFor(%d) out of range: (%d, %d)", obj, p1, r1)
		}
		if p1 == r1 {
			t.Fatalf("ShardFor(%d): replica equals primary in a %d-shard tier", obj, shards)
		}
		counts[p1]++
	}
	// Consistent hashing with 64 vnodes per shard keeps the load roughly
	// even; a collapsed ring (everything on one shard) means the hash or
	// the search is broken.
	for s, n := range counts {
		if n < 4000/shards/4 {
			t.Fatalf("shard %d owns only %d of 4000 objects: %v", s, n, counts)
		}
	}
	if p, r := mediator.ShardFor(7, 1); p != 0 || r != 0 {
		t.Fatalf("single-shard tier: ShardFor = (%d, %d)", p, r)
	}
}

// clusterFixture starts an n-shard cluster whose oracle knows objects
// 1..64 (one block each, content derived from the id).
func clusterFixture(t *testing.T, n int) (*transport.Mem, *mediator.Cluster, func(catalog.ObjectID) []byte) {
	t.Helper()
	tr := transport.NewMem()
	content := func(o catalog.ObjectID) []byte { return []byte{byte(o), 0xAB, byte(o >> 8)} }
	oracle := func(o catalog.ObjectID) ([][32]byte, bool) {
		if o < 1 || o > 64 {
			return nil, false
		}
		return [][32]byte{sha256.Sum256(content(o))}, true
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "mem://med-" + string(rune('a'+i))
	}
	cl, err := mediator.NewClusterOpts(tr, addrs, oracle, mediator.ClusterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return tr, cl, content
}

// TestClusterRefusesMisroutedTraffic sends a deposit for every object to a
// shard that owns it neither as primary nor as replica: the shard must refuse
// it as a bad request, store nothing and flag nobody.
func TestClusterRefusesMisroutedTraffic(t *testing.T) {
	tr, cl, _ := clusterFixture(t, 4)
	for obj := catalog.ObjectID(1); obj <= 16; obj++ {
		primary, replica := mediator.ShardFor(obj, 4)
		wrong := -1
		for s := 0; s < 4; s++ {
			if s != primary && s != replica {
				wrong = s
				break
			}
		}
		conn, err := tr.Dial(cl.Addrs()[wrong])
		if err != nil {
			t.Fatal(err)
		}
		msg := rpc(t, conn, &protocol.MedDeposit{ExchangeID: uint64(obj), Sender: 1, Object: obj, Key: [16]byte{1}})
		conn.Close()
		r, ok := msg.(*protocol.MedReject)
		if !ok || r.Code != protocol.MedRejectBadRequest || r.ExchangeID != uint64(obj) {
			t.Fatalf("object %d: misrouted deposit answered with %T %+v", obj, msg, msg)
		}
		if cl.HoldsEscrow(wrong, uint64(obj), 1) {
			t.Fatalf("object %d: shard %d stored a deposit it does not own", obj, wrong)
		}
	}
	if n := cl.Flagged(1); n != 0 {
		t.Fatalf("misrouted deposits flagged the sender %d times", n)
	}
}

// TestClusterEndToEnd runs deposits and audits for many objects through a
// medclient against a 4-shard tier: every operation must land, honest
// verifies release keys, junk is flagged on whichever shard owns it.
func TestClusterEndToEnd(t *testing.T) {
	tr, cl, content := clusterFixture(t, 4)
	c, err := medclient.New(medclient.Config{Transport: tr, Seeds: cl.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for obj := catalog.ObjectID(1); obj <= 32; obj++ {
		const sender, receiver core.PeerID = 10, 20
		var key [16]byte
		key[0] = byte(obj)
		ex := uint64(obj)
		if err := c.Deposit(ex, sender, obj, key); err != nil {
			t.Fatalf("deposit %d: %v", obj, err)
		}
		sealed, err := mediator.Seal(key, sender, receiver, obj, 0, content(obj))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Verify(ex, receiver, sender, obj, []protocol.Block{{Object: obj, Index: 0, Origin: sender, Recipient: receiver, Encrypted: true, Payload: sealed}})
		if err != nil {
			t.Fatalf("verify %d: %v", obj, err)
		}
		if got != key {
			t.Fatalf("verify %d released the wrong key", obj)
		}
	}

	// A junk sender is flagged on the shard owning its object, and the
	// cluster-wide count sees it.
	const cheater core.PeerID = 66
	obj := catalog.ObjectID(5)
	var key [16]byte
	copy(key[:], "cheater-key-....")
	if err := c.Deposit(999, cheater, obj, key); err != nil {
		t.Fatal(err)
	}
	sealed, err := mediator.Seal(key, cheater, 20, obj, 0, []byte("junk"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(999, 20, cheater, obj, []protocol.Block{{Object: obj, Index: 0, Payload: sealed}}); !errors.Is(err, medclient.ErrRejected) {
		t.Fatalf("junk passed the cluster audit: %v", err)
	}
	if cl.Flagged(cheater) == 0 {
		t.Fatal("cluster-wide flag count missed the cheater")
	}
}

// TestClusterFailoverMidVerify kills the primary shard between deposit and
// verify: the primary wrote the deposit through to the replica, so the
// client's failover must still obtain the key without ever reaching the
// corpse.
func TestClusterFailoverMidVerify(t *testing.T) {
	tr, cl, content := clusterFixture(t, 4)
	c, err := medclient.New(medclient.Config{Transport: tr, Seeds: cl.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj := catalog.ObjectID(9)
	primary, replica := mediator.ShardFor(obj, 4)
	const sender, receiver core.PeerID = 1, 2
	var key [16]byte
	copy(key[:], "failover-key-...")
	if err := c.Deposit(123, sender, obj, key); err != nil {
		t.Fatal(err)
	}

	waitUntil(t, "the replica holds the deposit", func() bool { return cl.HoldsEscrow(replica, 123, sender) })
	cl.KillShard(primary)

	sealed, err := mediator.Seal(key, sender, receiver, obj, 0, content(obj))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Verify(123, receiver, sender, obj, []protocol.Block{{Object: obj, Index: 0, Payload: sealed}})
	if err != nil {
		t.Fatalf("verify after primary death: %v", err)
	}
	if got != key {
		t.Fatal("failover released the wrong key")
	}

	// The revived shard comes back on its own address and serves again.
	before := cl.Addrs()[primary]
	if err := cl.RestartShard(primary); err != nil {
		t.Fatal(err)
	}
	if after := cl.Addrs()[primary]; after != before {
		t.Fatalf("restart moved shard %d from %s to %s", primary, before, after)
	}
	if err := c.Deposit(124, sender, obj, key); err != nil {
		t.Fatalf("deposit after restart: %v", err)
	}
}

// TestClusterPrimaryRestartUsesReplicaEscrow: when the primary restarts
// (reachable again but with empty escrow), its no-key answer must not be
// the last word — the client consults the replica, whose write-through
// deposit copy survived, and the verify succeeds.
func TestClusterPrimaryRestartUsesReplicaEscrow(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	tr, cl, content := clusterFixture(t, 4)
	c, err := medclient.New(medclient.Config{Transport: tr, Seeds: cl.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj := catalog.ObjectID(9)
	primary, replica := mediator.ShardFor(obj, 4)
	const sender, receiver core.PeerID = 1, 2
	var key [16]byte
	copy(key[:], "restart-key-....")
	if err := c.Deposit(456, sender, obj, key); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the replica holds the deposit", func() bool { return cl.HoldsEscrow(replica, 456, sender) })
	// Restart (not kill): the primary answers again, remembering nothing.
	if err := cl.RestartShard(primary); err != nil {
		t.Fatal(err)
	}
	sealed, err := mediator.Seal(key, sender, receiver, obj, 0, content(obj))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Verify(456, receiver, sender, obj, []protocol.Block{{Object: obj, Index: 0, Payload: sealed}})
	if err != nil {
		t.Fatalf("verify after primary restart: %v", err)
	}
	if got != key {
		t.Fatal("replica escrow released the wrong key")
	}
}

// TestClusterRestartLosesEscrowWithoutFlagging: a verify whose escrow died
// with a restarted shard gets the transient no-key refusal, not a cheating
// verdict.
func TestClusterRestartLosesEscrowWithoutFlagging(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	tr, cl, content := clusterFixture(t, 2)
	c, err := medclient.New(medclient.Config{Transport: tr, Seeds: cl.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj := catalog.ObjectID(3)
	const sender, receiver core.PeerID = 4, 5
	var key [16]byte
	copy(key[:], "lost-escrow-key.")
	if err := c.Deposit(321, sender, obj, key); err != nil {
		t.Fatal(err)
	}
	// Restart both shards: primary and replica copies are both gone.
	for i := 0; i < cl.Shards(); i++ {
		if err := cl.RestartShard(i); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := mediator.Seal(key, sender, receiver, obj, 0, content(obj))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Verify(321, receiver, sender, obj, []protocol.Block{{Object: obj, Index: 0, Payload: sealed}})
	if !errors.Is(err, medclient.ErrNoKey) {
		t.Fatalf("lost escrow reported as %v, want ErrNoKey", err)
	}
	if cl.Flagged(sender) != 0 {
		t.Fatal("lost escrow flagged an honest sender")
	}
	// Re-deposit and verify: the tier recovered.
	if err := c.Deposit(321, sender, obj, key); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(321, receiver, sender, obj, []protocol.Block{{Object: obj, Index: 0, Payload: sealed}}); err != nil {
		t.Fatalf("verify after re-deposit: %v", err)
	}
}

// TestClustersCountTheirOwnDrops runs two tiers in one process. In one, an
// object's replica is killed, so its primary drops each deposit it would copy
// there; in the other every shard stays up. Each tier must read only its
// own shards' counts: the drops are the first tier's, and none of them show
// up in the second's.
func TestClustersCountTheirOwnDrops(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	const deposits = 3
	obj := ownedBy(t, 0, 2)
	trDown, down, _ := clusterFixture(t, 2)
	trUp, up, _ := clusterFixture(t, 2)
	down.KillShard(1)
	for _, tier := range []struct {
		tr transport.Transport
		cl *mediator.Cluster
	}{{trDown, down}, {trUp, up}} {
		c, err := medclient.New(medclient.Config{Transport: tier.tr, Seeds: tier.cl.Addrs()})
		if err != nil {
			t.Fatal(err)
		}
		for ex := uint64(1); ex <= deposits; ex++ {
			if err := c.Deposit(ex, 1, obj, [16]byte{byte(ex)}); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
	waitUntil(t, "the primary counts each copy it could not send", func() bool { return down.Counts().ReplDropped == deposits })
	waitUntil(t, "the other tier sends every copy", func() bool { return up.Counts().Replicated == deposits })
	if n := up.Counts(); n.ReplDropped != 0 {
		t.Fatalf("a tier whose shards all stayed up counted %d dropped records", n.ReplDropped)
	}
	if n := down.Counts(); n.Replicated != 0 {
		t.Fatalf("a primary whose replica was down counted %d records sent", n.Replicated)
	}
}

func TestClusterValidation(t *testing.T) {
	tr := transport.NewMem()
	oracle := func(catalog.ObjectID) ([][32]byte, bool) { return nil, false }
	if _, err := mediator.NewClusterOpts(tr, nil, oracle, mediator.ClusterOpts{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := mediator.NewClusterOpts(tr, []string{"mem://x"}, nil, mediator.ClusterOpts{}); err == nil {
		t.Fatal("cluster without oracle accepted")
	}
}
