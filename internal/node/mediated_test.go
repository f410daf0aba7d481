package node

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
)

// medNet extends testNet with a mediator tier: every spawned node gets its
// own shard-aware client, as live deployments would. A nil cluster is the
// unmediated deployment — spawnMediated then spawns plain nodes — so the lane
// scheduler's tests can run one body over both.
type medNet struct {
	*testNet
	cluster *mediator.Cluster
	honest  []core.PeerID // every spawned origin that is not Corrupt
}

// newMedNet builds a testNet plus an n-shard mediator cluster whose oracle
// digests the canonical payload() content for objects 1..32 at the test
// block size.
func newMedNet(t *testing.T, shards, objSize int) *medNet {
	t.Helper()
	tn := newTestNet(t)
	oracle := func(o catalog.ObjectID) ([][32]byte, bool) {
		if o < 1 || o > 32 {
			return nil, false
		}
		data := payload(o, objSize)
		var digs [][32]byte
		for off := 0; off < len(data); off += 1024 {
			end := min(off+1024, len(data))
			digs = append(digs, sha256.Sum256(data[off:end]))
		}
		return digs, true
	}
	addrs := make([]string, shards)
	for i := range addrs {
		addrs[i] = "mem://med-" + string(rune('0'+i))
	}
	cluster, err := mediator.NewClusterOpts(tn.tr, addrs, oracle, mediator.ClusterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return &medNet{testNet: tn, cluster: cluster}
}

// spawnMediated starts a node wired to the mediator tier (if there is one).
func (mn *medNet) spawnMediated(id core.PeerID, mutate func(*Config)) *Node {
	mn.t.Helper()
	var mc *medclient.Client
	if mn.cluster != nil {
		var err error
		mc, err = medclient.New(medclient.Config{
			Transport: mn.tr,
			Seeds:     mn.cluster.Addrs(),
			Backoff:   5 * time.Millisecond,
		})
		if err != nil {
			mn.t.Fatal(err)
		}
	}
	n := mn.spawn(id, func(cfg *Config) {
		cfg.Mediator = mc
		if mutate != nil {
			mutate(cfg)
		}
		if !cfg.Corrupt {
			mn.honest = append(mn.honest, id)
		}
	})
	if mc != nil {
		// The node must be closed before its client; testNet's cleanup
		// closes the node, and cleanups run LIFO, so register the client
		// after.
		mn.t.Cleanup(mc.Close)
	}
	return n
}

// assertHonestUnflagged is the second half of paper invariant (iii): the
// tier never brands an honest peer. Every mediated test ends with it.
func (mn *medNet) assertHonestUnflagged() {
	mn.t.Helper()
	if mn.cluster == nil {
		return
	}
	for _, id := range mn.honest {
		if f := mn.cluster.Flagged(id); f != 0 {
			mn.t.Errorf("honest peer %d carries %d flags", id, f)
		}
	}
}

// TestMediatedTransferCompletes is the happy path: blocks travel sealed,
// the receiver audits, decrypts, and lands the exact bytes.
func TestMediatedTransferCompletes(t *testing.T) {
	const size = 8 * 1024
	mn := newMedNet(t, 1, size)
	server := mn.spawnMediated(1, nil)
	clientN := mn.spawnMediated(2, nil)
	obj := catalog.ObjectID(5)
	data := payload(obj, size)
	server.AddObject(obj, data)

	ch := clientN.Download(obj, map[core.PeerID]string{1: server.Addr()})
	if err := WaitFor(ch, testTimeout); err != nil {
		t.Fatal(err)
	}
	if got := clientN.Object(obj); !bytes.Equal(got, data) {
		t.Fatalf("downloaded %d bytes, content mismatch", len(got))
	}
	st := clientN.Stats()
	if st.MedVerifies == 0 {
		t.Fatal("no audit was submitted for a mediated transfer")
	}
	if st.MedRejects != 0 {
		t.Fatalf("honest transfer produced %d rejects", st.MedRejects)
	}
	mn.assertHonestUnflagged()
}

// TestMediatedCheaterFlagged: with only a corrupt provider, the transfer
// completes in sealed form, the audit rejects it, the tier flags the
// cheater, and the download fails for want of honest sources.
func TestMediatedCheaterFlagged(t *testing.T) {
	const size = 4 * 1024
	mn := newMedNet(t, 2, size)
	cheater := mn.spawnMediated(1, func(cfg *Config) { cfg.Corrupt = true })
	victim := mn.spawnMediated(2, nil)
	obj := catalog.ObjectID(3)
	cheater.AddObject(obj, payload(obj, size))

	ch := victim.Download(obj, map[core.PeerID]string{1: cheater.Addr()})
	err := WaitFor(ch, testTimeout)
	if !errors.Is(err, ErrNoSource) {
		t.Fatalf("download from a lone cheater: %v, want ErrNoSource", err)
	}
	if mn.cluster.Flagged(1) == 0 {
		t.Fatal("mediator tier never flagged the cheater")
	}
	st := victim.Stats()
	if st.MedRejects == 0 {
		t.Fatal("victim recorded no audit rejection")
	}
	if victim.Has(obj) {
		t.Fatal("junk object landed in the store")
	}
	mn.assertHonestUnflagged()
}

// TestMediatedRecoversFromCheater: a corrupt and an honest provider; even
// if the cheater wins the manifest race, the audit rejection re-requests
// and the honest source completes the download.
func TestMediatedRecoversFromCheater(t *testing.T) {
	const size = 4 * 1024
	mn := newMedNet(t, 2, size)
	cheater := mn.spawnMediated(1, func(cfg *Config) { cfg.Corrupt = true })
	honest := mn.spawnMediated(2, nil)
	victim := mn.spawnMediated(3, func(cfg *Config) { cfg.StallTicks = 5 })
	obj := catalog.ObjectID(7)
	data := payload(obj, size)
	cheater.AddObject(obj, data)
	honest.AddObject(obj, data)

	ch := victim.Download(obj, map[core.PeerID]string{
		1: cheater.Addr(),
		2: honest.Addr(),
	})
	if err := WaitFor(ch, testTimeout); err != nil {
		t.Fatal(err)
	}
	if got := victim.Object(obj); !bytes.Equal(got, data) {
		t.Fatal("content mismatch after recovering from the cheater")
	}
	mn.assertHonestUnflagged()
}

// TestMediatedRidesThroughShardRestart restarts every mediator shard while
// transfers are in flight: escrows are lost, audits come back keyless, and
// the node-side client plus session retry must still converge on a clean
// download without anyone being flagged.
func TestMediatedRidesThroughShardRestart(t *testing.T) {
	const size = 16 * 1024
	mn := newMedNet(t, 2, size)
	server := mn.spawnMediated(1, func(cfg *Config) {
		cfg.BlockDelay = 2 * time.Millisecond // stretch the transfer window
	})
	clientN := mn.spawnMediated(2, func(cfg *Config) { cfg.StallTicks = 8 })
	obj := catalog.ObjectID(9)
	data := payload(obj, size)
	server.AddObject(obj, data)

	ch := clientN.Download(obj, map[core.PeerID]string{1: server.Addr()})
	time.Sleep(10 * time.Millisecond) // let the transfer get going
	for i := 0; i < mn.cluster.Shards(); i++ {
		if err := mn.cluster.RestartShard(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := WaitFor(ch, testTimeout); err != nil {
		t.Fatalf("download did not survive the shard restarts: %v", err)
	}
	if got := clientN.Object(obj); !bytes.Equal(got, data) {
		t.Fatal("content mismatch after shard restarts")
	}
	if mn.cluster.Flagged(1) != 0 {
		t.Fatal("honest sender was flagged after escrow loss")
	}
	mn.assertHonestUnflagged()
}

// TestMediatedLyingManifestCaught: the provider holds an object with one
// block altered, and its manifest's digests agree with its bytes, so only
// the registry knows better. The receiver trusts no digests of its own and
// takes the whole object from that one origin. Wherever the bad block sits,
// the tier's digests catch it, it comes back as evidence, and the provider
// is flagged; the receiver never stores it.
func TestMediatedLyingManifestCaught(t *testing.T) {
	const (
		blocks = 8
		size   = blocks * 1024 // the test block size
	)
	for bad := 0; bad < blocks; bad++ {
		t.Run(fmt.Sprintf("block%d", bad), func(t *testing.T) {
			mn := newMedNet(t, 2, size)
			liar := mn.spawnMediated(1, nil)
			mn.honest = mn.honest[:0] // not Corrupt, but no honest peer either
			victim := mn.spawnMediated(2, func(cfg *Config) { cfg.Stripe = 1 })
			obj := catalog.ObjectID(11)
			data := payload(obj, size)
			altered := bytes.Clone(data)
			altered[bad*1024+17] ^= 0x01
			liar.AddObject(obj, altered)

			ch := victim.Download(obj, map[core.PeerID]string{1: liar.Addr()})
			err := WaitFor(ch, testTimeout)
			if got := victim.Object(obj); got != nil && !bytes.Equal(got, data) {
				t.Fatalf("stored the altered object (download err %v)", err)
			}
			if !errors.Is(err, ErrNoSource) {
				t.Fatalf("download from a lone liar: %v, want ErrNoSource", err)
			}
			waitUntil(t, "the liar flagged", func() bool { return mn.cluster.Flagged(1) > 0 })
			if st := victim.Stats(); st.MedRejects == 0 {
				t.Fatal("victim recorded no rejection")
			}
			if f := mn.cluster.Flagged(2); f != 0 {
				t.Fatalf("the receiver carries %d flags", f)
			}
			mn.assertHonestUnflagged()
		})
	}
}

// TestMediatedTruncatedManifestRefused: the provider holds the first half of
// an 8-block object, so its manifest names 4 blocks, with digests that agree
// with its bytes. The receiver trusts no digests of its own and takes the
// object from that one origin. The tier counts 8 blocks and refuses the
// audit: nothing is stored, the download ends in an error, and nobody is
// flagged, since the unsigned manifest is no evidence against its sender.
func TestMediatedTruncatedManifestRefused(t *testing.T) {
	const size = 8 * 1024
	mn := newMedNet(t, 2, size)
	provider := mn.spawnMediated(1, nil)
	receiver := mn.spawnMediated(2, func(cfg *Config) { cfg.Stripe = 1 })
	obj := catalog.ObjectID(12)
	provider.AddObject(obj, payload(obj, size)[:size/2])

	err := WaitFor(receiver.Download(obj, map[core.PeerID]string{1: provider.Addr()}), testTimeout)
	if !errors.Is(err, ErrNoSource) {
		t.Fatalf("download from a truncating provider: %v, want ErrNoSource", err)
	}
	if receiver.Has(obj) {
		t.Fatal("the truncated object landed in the store")
	}
	mn.assertHonestUnflagged()
}
