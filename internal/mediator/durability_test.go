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

// durableFixture starts an n-shard cluster with a write-ahead log under dir;
// the oracle knows objects 1..64 (one block each, content derived from id).
func durableFixture(t *testing.T, n int, dir string) (*transport.Mem, *mediator.Cluster, func(catalog.ObjectID) []byte) {
	t.Helper()
	tr := transport.NewMem()
	content := func(o catalog.ObjectID) []byte { return []byte{byte(o), 0xCD, byte(o >> 8)} }
	oracle := func(o catalog.ObjectID) ([][32]byte, bool) {
		if o < 1 || o > 64 {
			return nil, false
		}
		return [][32]byte{sha256.Sum256(content(o))}, true
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "mem://dmed-" + string(rune('a'+i))
	}
	cl, err := mediator.NewClusterOpts(tr, addrs, oracle, mediator.ClusterOpts{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return tr, cl, content
}

// flagCheater runs a junk audit through the client so the tier flags peer.
func flagCheater(t *testing.T, c *medclient.Client, cheater core.PeerID, obj catalog.ObjectID, ex uint64) {
	t.Helper()
	var key [16]byte
	copy(key[:], "cheater-key-....")
	if err := c.Deposit(ex, cheater, obj, key); err != nil {
		t.Fatal(err)
	}
	sealed, err := mediator.Seal(key, cheater, 20, obj, 0, []byte("junk"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify(ex, 20, cheater, obj, []protocol.Block{{Object: obj, Index: 0, Payload: sealed}}); !errors.Is(err, medclient.ErrRejected) {
		t.Fatalf("junk passed the audit: %v", err)
	}
}

// TestShardRecoveryMidEscrow kills a shard between deposit and verify and
// restarts it from its log: both the escrowed key and the previously flagged
// cheater must be intact — the tentpole's core promise.
func TestShardRecoveryMidEscrow(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	tr, cl, content := durableFixture(t, 2, t.TempDir())
	c, err := medclient.New(medclient.Config{Transport: tr, Seeds: cl.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const cheater core.PeerID = 66
	flagCheater(t, c, cheater, 7, 700)
	if cl.Flagged(cheater) == 0 {
		t.Fatal("cheater not flagged before the restart")
	}

	obj := catalog.ObjectID(3)
	const sender, receiver core.PeerID = 4, 5
	var key [16]byte
	copy(key[:], "durable-key-....")
	if err := c.Deposit(321, sender, obj, key); err != nil {
		t.Fatal(err)
	}
	// Restart every shard: in-memory state is gone everywhere; only the
	// logs remain. Without a DataDir this exact sequence yields ErrNoKey
	// (see TestClusterRestartLosesEscrowWithoutFlagging).
	for i := 0; i < cl.Shards(); i++ {
		if err := cl.RestartShard(i); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := mediator.Seal(key, sender, receiver, obj, 0, content(obj))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Verify(321, receiver, sender, obj, []protocol.Block{{Object: obj, Index: 0, Payload: sealed}})
	if err != nil {
		t.Fatalf("verify after full-tier restart: %v", err)
	}
	if got != key {
		t.Fatal("replayed escrow released the wrong key")
	}
	if cl.Flagged(cheater) == 0 {
		t.Fatal("restart forgot the flagged cheater")
	}
	if cl.Flagged(sender) != 0 {
		t.Fatal("honest sender flagged across restart")
	}
}

// TestClusterRestartRecoversFromLog tears the whole cluster down and builds
// a new one over the same data dir — the library-level equivalent of a
// mediatord process restart. Detection history must carry over.
func TestClusterRestartRecoversFromLog(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	dir := t.TempDir()
	tr, cl, _ := durableFixture(t, 2, dir)
	c, err := medclient.New(medclient.Config{Transport: tr, Seeds: cl.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	const cheater core.PeerID = 77
	flagCheater(t, c, cheater, 9, 900)
	c.Close()
	cl.Close()

	_, cl2, content := durableFixture(t, 2, dir)
	if cl2.Flagged(cheater) == 0 {
		t.Fatal("new cluster over the same data dir forgot the cheater")
	}
	// The escrow from the junk exchange also survived: the same verify now
	// still rejects (key is present, samples still junk) rather than
	// refusing with no-key.
	_ = content
}

// TestFlagReplicationSurvivesAuditorLoss flags a cheater on the object's
// primary, then kills that primary before any restart: the write-through
// flag copy on the replica must keep the tier-wide count nonzero. No data
// dir — this is the replication path, not the log.
func TestFlagReplicationSurvivesAuditorLoss(t *testing.T) {
	tr, cl, _ := clusterFixture(t, 4)
	c, err := medclient.New(medclient.Config{Transport: tr, Seeds: cl.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const cheater core.PeerID = 88
	obj := catalog.ObjectID(5)
	flagCheater(t, c, cheater, obj, 999)

	// Replication is asynchronous: wait for the replica's copies.
	primary, replica := mediator.ShardFor(obj, 4)
	waitUntil(t, "the replica holds the deposit and the flag", func() bool {
		return cl.HoldsEscrow(replica, 999, cheater) && cl.Shard(replica).Flagged(cheater) > 0
	})
	cl.KillShard(primary)
	if cl.Flagged(cheater) == 0 {
		t.Fatal("killing the auditing shard erased the only flag copy")
	}
}
