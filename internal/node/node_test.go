package node

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/protocol"
	"barter/internal/transport"
)

const testTimeout = 30 * time.Second

// testNet wires nodes together over an in-memory transport with a shared
// address directory (the lookup service the paper treats as external).
type testNet struct {
	t     *testing.T
	tr    transport.Transport
	mu    sync.Mutex
	addrs map[core.PeerID]string
	nodes []*Node
}

func newTestNet(t *testing.T) *testNet {
	t.Helper()
	return &testNet{t: t, tr: transport.NewMem(), addrs: make(map[core.PeerID]string)}
}

func (tn *testNet) lookup(p core.PeerID) (string, bool) {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	a, ok := tn.addrs[p]
	return a, ok
}

func (tn *testNet) spawn(id core.PeerID, mutate func(*Config)) *Node {
	tn.t.Helper()
	cfg := Config{
		ID:           id,
		Transport:    tn.tr,
		Lookup:       tn.lookup,
		Share:        true,
		UploadSlots:  4,
		BlockSize:    1024,
		TickInterval: 5 * time.Millisecond,
		StallTicks:   20,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		tn.t.Fatalf("spawn %d: %v", id, err)
	}
	tn.mu.Lock()
	tn.addrs[id] = n.Addr()
	tn.nodes = append(tn.nodes, n)
	tn.mu.Unlock()
	tn.t.Cleanup(n.Close)
	return n
}

func (tn *testNet) addrOf(id core.PeerID) string {
	a, ok := tn.lookup(id)
	if !ok {
		tn.t.Fatalf("no address for %d", id)
	}
	return a
}

func payload(obj catalog.ObjectID, size int) []byte {
	out := make([]byte, size)
	seed := sha256.Sum256([]byte(fmt.Sprintf("object-%d", obj)))
	for i := range out {
		out[i] = seed[i%32] ^ byte(i)
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil transport accepted")
	}
	if _, err := New(Config{
		Transport: transport.NewMem(),
		Policy:    core.Policy{Kind: core.ShortFirst, MaxRing: 1},
	}); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestAddAndQueryObject(t *testing.T) {
	tn := newTestNet(t)
	n := tn.spawn(1, nil)
	data := payload(10, 5000)
	n.AddObject(10, data)
	if !n.Has(10) {
		t.Fatal("Has(10) false after AddObject")
	}
	if n.Has(11) {
		t.Fatal("Has(11) true for missing object")
	}
	if !bytes.Equal(n.Object(10), data) {
		t.Fatal("Object(10) corrupted")
	}
	if n.Object(11) != nil {
		t.Fatal("Object(11) non-nil")
	}
}

func TestPlainDownload(t *testing.T) {
	tn := newTestNet(t)
	server := tn.spawn(1, nil)
	client := tn.spawn(2, nil)
	data := payload(10, 10_000)
	server.AddObject(10, data)

	ch := client.Download(10, map[core.PeerID]string{1: tn.addrOf(1)})
	if err := WaitFor(ch, testTimeout); err != nil {
		t.Fatalf("download: %v", err)
	}
	if !bytes.Equal(client.Object(10), data) {
		t.Fatal("downloaded bytes differ")
	}
	if st := server.Stats(); st.BlocksSent == 0 || st.RequestsServed != 1 {
		t.Fatalf("server stats %+v", st)
	}
}

// TestStaleProviderAddress: the address a download was handed for a provider
// no longer answers (the provider restarted elsewhere); the lookup service
// knows the new one and the download still completes.
func TestStaleProviderAddress(t *testing.T) {
	tn := newTestNet(t)
	server := tn.spawn(1, nil)
	client := tn.spawn(2, nil)
	data := payload(10, 4000)
	server.AddObject(10, data)

	ch := client.Download(10, map[core.PeerID]string{1: "mem://moved-away"})
	if err := WaitFor(ch, testTimeout); err != nil {
		t.Fatalf("download: %v", err)
	}
	if !bytes.Equal(client.Object(10), data) {
		t.Fatal("downloaded bytes differ")
	}
}

func TestDownloadAlreadyHeld(t *testing.T) {
	tn := newTestNet(t)
	n := tn.spawn(1, nil)
	n.AddObject(10, payload(10, 100))
	if err := WaitFor(n.Download(10, nil), testTimeout); err != nil {
		t.Fatalf("download of held object: %v", err)
	}
}

func TestFreeriderServesNobody(t *testing.T) {
	tn := newTestNet(t)
	rider := tn.spawn(1, func(c *Config) { c.Share = false })
	client := tn.spawn(2, func(c *Config) { c.StallTicks = 10_000 }) // only the refusal can end it
	rider.AddObject(10, payload(10, 2000))

	err := WaitFor(client.Download(10, map[core.PeerID]string{1: tn.addrOf(1)}), testTimeout)
	if !errors.Is(err, ErrNoSource) {
		t.Fatalf("download from a lone free-rider: %v, want ErrNoSource", err)
	}
}

// TestPairwiseExchange is the protocol's core scenario: two sharers with
// mutual wants form a 2-ring and serve each other with exchange priority.
func TestPairwiseExchange(t *testing.T) {
	tn := newTestNet(t)
	// Paced, so neither transfer can finish before the other side has even
	// issued its want: the wants must overlap for a ring to exist.
	paced := func(c *Config) { c.BlockDelay = time.Millisecond }
	a := tn.spawn(1, paced)
	b := tn.spawn(2, paced)
	oa, ob := catalog.ObjectID(100), catalog.ObjectID(200)
	dataA, dataB := payload(oa, 20_000), payload(ob, 20_000)
	a.AddObject(oa, dataA)
	b.AddObject(ob, dataB)

	chA := a.Download(ob, map[core.PeerID]string{2: tn.addrOf(2)})
	chB := b.Download(oa, map[core.PeerID]string{1: tn.addrOf(1)})
	if err := WaitFor(chA, testTimeout); err != nil {
		t.Fatalf("A's download: %v", err)
	}
	if err := WaitFor(chB, testTimeout); err != nil {
		t.Fatalf("B's download: %v", err)
	}
	if !bytes.Equal(a.Object(ob), dataB) || !bytes.Equal(b.Object(oa), dataA) {
		t.Fatal("exchanged objects corrupted")
	}
	ringsSeen := a.Stats().RingsJoined + b.Stats().RingsJoined
	if ringsSeen == 0 {
		t.Fatalf("no ring formed: A=%+v B=%+v", a.Stats(), b.Stats())
	}
	if a.Stats().ExchangeBlocksSent+b.Stats().ExchangeBlocksSent == 0 {
		t.Fatal("no exchange blocks flowed")
	}
}

// TestThreeWayRing drives the Figure 2 scenario live: C requested from A, A
// requested from B, and B wants an object only C holds, closing a 3-ring.
// Each sharer has a single upload slot occupied by a long transfer to a
// sink, so the plain non-exchange path is congested and only the ring (which
// preempts) can serve the chain promptly — exactly the paper's mechanism.
func TestThreeWayRing(t *testing.T) {
	if testing.Short() {
		// The 3-ring needs sink transfers big enough to pace real time;
		// TestPairwiseExchange keeps exchange coverage in -short.
		t.Skip("multi-second live 3-ring skipped in -short")
	}
	tn := newTestNet(t)
	single := func(c *Config) { c.UploadSlots = 1; c.BlockDelay = time.Millisecond }
	a := tn.spawn(1, single)
	b := tn.spawn(2, single)
	c := tn.spawn(3, single)
	sink := tn.spawn(4, func(c *Config) { c.Share = false; c.StallTicks = 1000 })
	oa, ob, oc := catalog.ObjectID(100), catalog.ObjectID(200), catalog.ObjectID(300)
	big := 600_000 // sink transfers hog the single slots for a while
	dataA, dataB, dataC := payload(oa, 15_000), payload(ob, 15_000), payload(oc, 15_000)
	a.AddObject(oa, dataA) // C wants this
	b.AddObject(ob, dataB) // A wants this
	c.AddObject(oc, dataC) // B wants this
	for i, holder := range []*Node{a, b, c} {
		blob := catalog.ObjectID(900 + i)
		holder.AddObject(blob, payload(blob, big))
		sink.Download(blob, map[core.PeerID]string{holder.ID(): tn.addrOf(holder.ID())})
	}
	time.Sleep(50 * time.Millisecond) // sink transfers under way

	// Register requests so the request chain C -> A -> B exists, then B's
	// own want (o_c, provided by C) closes the ring B -> A -> C -> B.
	chC := c.Download(oa, map[core.PeerID]string{1: tn.addrOf(1)})
	time.Sleep(50 * time.Millisecond) // let C's request register at A
	chA := a.Download(ob, map[core.PeerID]string{2: tn.addrOf(2)})
	time.Sleep(50 * time.Millisecond) // let A's request (with C's subtree) register at B
	chB := b.Download(oc, map[core.PeerID]string{3: tn.addrOf(3)})

	for name, ch := range map[string]<-chan error{"A": chA, "B": chB, "C": chC} {
		if err := WaitFor(ch, testTimeout); err != nil {
			t.Fatalf("%s's download: %v", name, err)
		}
	}
	if !bytes.Equal(a.Object(ob), dataB) || !bytes.Equal(b.Object(oc), dataC) || !bytes.Equal(c.Object(oa), dataA) {
		t.Fatal("3-way exchanged objects corrupted")
	}
	joined := a.Stats().RingsJoined + b.Stats().RingsJoined + c.Stats().RingsJoined
	if joined < 3 {
		t.Fatalf("expected a committed 3-ring at all members, stats: A=%+v B=%+v C=%+v",
			a.Stats(), b.Stats(), c.Stats())
	}
	exch := a.Stats().ExchangeBlocksSent + b.Stats().ExchangeBlocksSent + c.Stats().ExchangeBlocksSent
	if exch == 0 {
		t.Fatal("no blocks flowed through the ring")
	}
}

// TestRingIDsDistinctAcrossInitiators: two initiators whose ids agree in
// their low 16 bits each probe the same member on their first ring. The
// member must see two ring ids, or one negotiation would overwrite the
// other in its rings table.
func TestRingIDsDistinctAcrossInitiators(t *testing.T) {
	tn := newTestNet(t)
	member := func(core.PeerID) (string, bool) { return "raw", true }
	own, wanted := catalog.ObjectID(10), catalog.ObjectID(20)
	var ids []uint64
	for _, id := range []core.PeerID{1, 65537} {
		n := tn.spawn(id, func(c *Config) { c.Lookup = member })
		n.AddObject(own, payload(own, 4096))
		// Raw peer 3 asks for own and provides wanted: a pairwise ring,
		// whichever of the two the node handles first.
		r := dialRaw(tn, 3, n)
		r.send(&protocol.Request{Object: own, Tree: core.Tree{Root: 3}})
		n.Download(wanted, map[core.PeerID]string{3: "raw"})
		ids = append(ids, recvRaw[*protocol.RingProbe](r).RingID)
	}
	if ids[0] == ids[1] {
		t.Fatalf("nodes 1 and 65537 both probed with ring id %d", ids[0])
	}
}

// TestExchangePreemptsFreerider: with a single upload slot, a sharer serving
// a free-rider reclaims the slot the moment a pairwise exchange appears.
func TestExchangePreemptsFreerider(t *testing.T) {
	tn := newTestNet(t)
	a := tn.spawn(1, func(c *Config) { c.UploadSlots = 1; c.BlockDelay = time.Millisecond })
	b := tn.spawn(2, func(c *Config) { c.BlockDelay = time.Millisecond })
	rider := tn.spawn(3, func(c *Config) { c.Share = false; c.StallTicks = 1000 })
	oa, ob := catalog.ObjectID(100), catalog.ObjectID(200)
	a.AddObject(oa, payload(oa, 100_000)) // paced transfer: plenty of time to preempt
	b.AddObject(ob, payload(ob, 100_000))

	// The free-rider grabs A's only slot first.
	chRider := rider.Download(oa, map[core.PeerID]string{1: tn.addrOf(1)})
	time.Sleep(50 * time.Millisecond)
	// Mutual wants between A and B create an exchange that must preempt.
	chA := a.Download(ob, map[core.PeerID]string{2: tn.addrOf(2)})
	chB := b.Download(oa, map[core.PeerID]string{1: tn.addrOf(1)})

	if err := WaitFor(chA, testTimeout); err != nil {
		t.Fatalf("A's download: %v", err)
	}
	if err := WaitFor(chB, testTimeout); err != nil {
		t.Fatalf("B's download: %v", err)
	}
	if a.Stats().Preemptions == 0 {
		t.Fatalf("no preemption recorded at A: %+v", a.Stats())
	}
	// The free-rider eventually completes too, from spare capacity.
	if err := WaitFor(chRider, testTimeout); err != nil {
		t.Fatalf("rider's download: %v", err)
	}
}

// TestPreemptsYoungestUpload: a ring commit on a node whose slots are all
// taken by plain uploads ends the most recently started one, as the
// simulator does — the one with the least accumulated work. Map iteration
// order is random, so a pick in map order fails some trial almost surely.
func TestPreemptsYoungestUpload(t *testing.T) {
	const slots, trials, ringID = 4, 12, 77
	ox, oy := catalog.ObjectID(100), catalog.ObjectID(200)
	for range trials {
		tn := newTestNet(t)
		holder := tn.spawn(1, func(c *Config) { c.UploadSlots = slots; c.StallTicks = 10_000 })
		holder.AddObject(ox, payload(ox, 16*1024))
		ring := dialRaw(tn, 9, holder)
		holder.Download(oy, map[core.PeerID]string{9: ""})
		// Start the plain uploads one at a time, so their order is known.
		for i := range slots {
			r := dialRaw(tn, core.PeerID(10+i), holder)
			r.send(&protocol.Request{Object: ox, Tree: core.Tree{Root: r.id}})
			recvRaw[*protocol.Manifest](r)
		}
		ring.send(&protocol.RingProbe{RingID: ringID, Members: []protocol.RingMember{
			{Peer: ring.id, Gives: oy, Addr: "mem://raw"},
			{Peer: holder.ID(), Gives: ox, Addr: holder.Addr()},
		}})
		if a := recvRaw[*protocol.RingAccept](ring); !a.OK {
			t.Fatalf("holder refused the ring: %s", a.Reason)
		}
		ring.send(&protocol.RingCommit{RingID: ringID})
		recvRaw[*protocol.Manifest](ring) // the commit, preemption included, is done
		var plain []core.PeerID
		holder.call(func() {
			for k, u := range holder.uploads {
				if u.ringID == 0 {
					plain = append(plain, k.to)
				}
			}
		})
		if len(plain) != slots-1 || slices.Contains(plain, core.PeerID(10+slots-1)) {
			t.Fatalf("after the commit the plain uploads go to %v, want all but the youngest (%d)", plain, 10+slots-1)
		}
	}
}

// TestCheaterBlocksRejected: a corrupt peer serves junk in the lane it was
// granted; the receiver validates digests block-by-block, rejects, and
// completes from an honest source instead.
func TestCheaterBlocksRejected(t *testing.T) {
	tn := newTestNet(t)
	obj := catalog.ObjectID(10)
	data := payload(obj, 10_000)
	digs := trueDigests(data, 1024)

	cheater := tn.spawn(1, func(c *Config) { c.Corrupt = true })
	honest := tn.spawn(2, nil)
	client := tn.spawn(3, func(c *Config) {
		c.Stripe = 2
		c.StallTicks = 5
		c.TrustedDigests = func(o catalog.ObjectID) ([][32]byte, bool) {
			if o == obj {
				return digs, true
			}
			return nil, false
		}
	})
	cheater.AddObject(obj, data) // serves junk regardless
	dialRaw(tn, 8, client)       // a silent provider (see rawPeer)

	// The honest source is handed over only once the cheater carries a
	// lane, so the cheater's junk is guaranteed to be probed; the silent
	// provider keeps the download open meanwhile.
	ch := client.Download(obj, map[core.PeerID]string{1: tn.addrOf(1), 8: ""})
	waitUntil(t, "the cheater is granted a lane", func() bool { return client.Stats().StripesGranted >= 1 })
	honest.AddObject(obj, data)
	client.Download(obj, map[core.PeerID]string{2: tn.addrOf(2)})
	if err := WaitFor(ch, testTimeout); err != nil {
		t.Fatalf("download despite cheater: %v", err)
	}
	if !bytes.Equal(client.Object(obj), data) {
		t.Fatal("received corrupted object")
	}
	if client.Stats().BlocksRejected == 0 {
		t.Fatal("no junk blocks were rejected (cheater never probed?)")
	}
}

func trueDigests(data []byte, blockSize int) [][32]byte {
	blocks := splitBlocks(data, blockSize)
	out := make([][32]byte, len(blocks))
	for i, b := range blocks {
		out[i] = sha256.Sum256(b)
	}
	return out
}

// TestNodeOverTCP runs the pairwise exchange over real sockets.
func TestNodeOverTCP(t *testing.T) {
	tn := &testNet{t: t, tr: transport.TCP{}, addrs: make(map[core.PeerID]string)}
	spawn := func(id core.PeerID) *Node {
		cfg := Config{
			ID:           id,
			Addr:         "127.0.0.1:0",
			Transport:    tn.tr,
			Lookup:       tn.lookup,
			Share:        true,
			UploadSlots:  4,
			BlockSize:    4096,
			TickInterval: 5 * time.Millisecond,
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatalf("spawn %d: %v", id, err)
		}
		tn.mu.Lock()
		tn.addrs[id] = n.Addr()
		tn.mu.Unlock()
		t.Cleanup(n.Close)
		return n
	}
	a := spawn(1)
	b := spawn(2)
	oa, ob := catalog.ObjectID(1), catalog.ObjectID(2)
	dataA, dataB := payload(oa, 50_000), payload(ob, 50_000)
	a.AddObject(oa, dataA)
	b.AddObject(ob, dataB)

	chA := a.Download(ob, map[core.PeerID]string{2: tn.addrOf(2)})
	chB := b.Download(oa, map[core.PeerID]string{1: tn.addrOf(1)})
	if err := WaitFor(chA, testTimeout); err != nil {
		t.Fatalf("A over TCP: %v", err)
	}
	if err := WaitFor(chB, testTimeout); err != nil {
		t.Fatalf("B over TCP: %v", err)
	}
	if !bytes.Equal(a.Object(ob), dataB) || !bytes.Equal(b.Object(oa), dataA) {
		t.Fatal("TCP exchange corrupted data")
	}
}

func TestPeerDepartureMidTransfer(t *testing.T) {
	tn := newTestNet(t)
	// The source is quiet — one block, then nothing — so the transfer is
	// still under way when it departs however the goroutines are scheduled
	// (an unpaced 500 KB transfer won the race against Close once or twice
	// in a hundred -race runs).
	server := tn.spawn(1, quiet)
	client := tn.spawn(2, nil)
	obj := catalog.ObjectID(10)
	server.AddObject(obj, payload(obj, 500_000))

	ch := client.Download(obj, map[core.PeerID]string{1: tn.addrOf(1)})
	server.Close() // depart; whatever blocks flowed, the rest never will
	// No timer ends it: the lost connection is re-dialed, the dial fails,
	// and the set empties.
	if err := WaitFor(ch, testTimeout); !errors.Is(err, ErrNoSource) {
		t.Fatalf("download from a departed lone source: %v, want ErrNoSource", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	tn := newTestNet(t)
	n := tn.spawn(1, nil)
	n.Close()
	n.Close() // must not panic or hang
}

// TestCloseWithIdleInboundConn: a dialer that connects but never sends a
// Hello used to park a reader goroutine the node could not unblock — the
// connection was only tracked once its Hello registered it. Close must
// return regardless.
func TestCloseWithIdleInboundConn(t *testing.T) {
	tn := newTestNet(t)
	n := tn.spawn(1, nil)
	conn, err := tn.tr.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()                //nolint:errcheck // test cleanup
	time.Sleep(20 * time.Millisecond) // let the acceptor pick it up

	done := make(chan struct{})
	go func() {
		n.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Node.Close hung on an idle inbound connection")
	}
}

// TestCloseFailsPendingDownloads: waiters of an in-flight download observe
// ErrNodeClosed promptly instead of waiting out their timeout.
func TestCloseFailsPendingDownloads(t *testing.T) {
	tn := newTestNet(t)
	server := tn.spawn(1, func(c *Config) { c.BlockDelay = 5 * time.Millisecond })
	client := tn.spawn(2, nil)
	obj := catalog.ObjectID(10)
	server.AddObject(obj, payload(obj, 500_000))

	ch := client.Download(obj, map[core.PeerID]string{1: tn.addrOf(1)})
	time.Sleep(20 * time.Millisecond) // transfer under way
	client.Close()
	select {
	case err := <-ch:
		if !errors.Is(err, ErrNodeClosed) {
			t.Fatalf("waiter got %v, want ErrNodeClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never notified after Close")
	}

	// And a Download issued after Close fails immediately.
	if err := <-client.Download(obj, nil); !errors.Is(err, ErrNodeClosed) {
		t.Fatalf("post-Close Download got %v, want ErrNodeClosed", err)
	}
}

func TestSplitBlocks(t *testing.T) {
	cases := []struct {
		size, block, want int
	}{
		{0, 10, 0},
		{5, 10, 1},
		{10, 10, 1},
		{11, 10, 2},
		{100, 10, 10},
	}
	for _, tc := range cases {
		got := splitBlocks(make([]byte, tc.size), tc.block)
		if len(got) != tc.want {
			t.Fatalf("splitBlocks(%d, %d) = %d blocks, want %d", tc.size, tc.block, len(got), tc.want)
		}
		total := 0
		for _, b := range got {
			total += len(b)
		}
		if total != tc.size {
			t.Fatalf("splitBlocks lost bytes: %d != %d", total, tc.size)
		}
	}
}

// Has reports whether the node holds the complete object.
func (n *Node) Has(obj catalog.ObjectID) bool {
	var ok bool
	n.call(func() { _, ok = n.store[obj] })
	return ok
}
