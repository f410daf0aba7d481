package mediator_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
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

// rawDial opens a plain TCP connection under the protocol framing, for
// writing pathological bytes no well-behaved transport would emit.
func rawDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// expectClosed waits for the remote to drop the connection.
func expectClosed(nc net.Conn, timeout time.Duration) error {
	if err := nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	var buf [1]byte
	if _, err := nc.Read(buf[:]); err == nil {
		return fmt.Errorf("remote sent data instead of closing")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return fmt.Errorf("remote kept the connection open past %v", timeout)
	}
	return nil
}

// TestSealOpenRoundTrip also pins who may write where. Seal builds its
// result in place but in a buffer of its own, and the sealed bytes for a
// fixed key and position are the ones every earlier version put on the wire.
// Open must not decrypt in place: it is the copy-out form, and Crypt the
// in-place one for a caller that owns the block.
func TestSealOpenRoundTrip(t *testing.T) {
	key := [16]byte{1, 2, 3}
	payload := []byte("the quick brown fox")
	sealed, err := mediator.Seal(key, 7, 9, 42, 3, payload)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, payload) {
		t.Fatal("sealed block leaks plaintext")
	}
	if string(payload) != "the quick brown fox" {
		t.Fatalf("Seal wrote into its input: %q", payload)
	}
	const want = "67cf4e7671a1af0f3354471e34733cb89f040cc7b6e6649cf58101247f05e1eff206dd"
	if got := hex.EncodeToString(sealed); got != want {
		t.Fatalf("sealed bytes changed:\n got %s\nwant %s", got, want)
	}
	origin, recipient, got, err := mediator.Open(key, 42, 3, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if origin != 7 || recipient != 9 || !bytes.Equal(got, payload) {
		t.Fatalf("Open = (%d, %d, %q)", origin, recipient, got)
	}
	if hex.EncodeToString(sealed) != want {
		t.Fatal("Open wrote into the sealed block")
	}
}

func TestOpenWrongKeyFails(t *testing.T) {
	sealed, err := mediator.Seal([16]byte{1}, 7, 9, 42, 3, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong key: either the header check fails or origin/recipient decode
	// to garbage; both must be detectable.
	origin, recipient, _, err := mediator.Open([16]byte{2}, 42, 3, sealed)
	if err == nil && origin == 7 && recipient == 9 {
		t.Fatal("wrong key decrypted to the correct header")
	}
}

func TestOpenWrongPositionFails(t *testing.T) {
	key := [16]byte{5}
	sealed, err := mediator.Seal(key, 7, 9, 42, 3, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := mediator.Open(key, 42, 4, sealed); err == nil {
		t.Fatal("block accepted at the wrong index")
	}
	if _, _, _, err := mediator.Open(key, 43, 3, sealed); err == nil {
		t.Fatal("block accepted for the wrong object")
	}
}

func TestOpenTruncated(t *testing.T) {
	if _, _, _, err := mediator.Open([16]byte{}, 1, 1, []byte("short")); err == nil {
		t.Fatal("truncated sealed block accepted")
	}
}

// mediated test fixture: object content and oracle.
func fixture(t *testing.T) (tr *transport.Mem, med *mediator.Mediator, obj catalog.ObjectID, blocks [][]byte) {
	t.Helper()
	tr = transport.NewMem()
	obj = catalog.ObjectID(42)
	blocks = [][]byte{[]byte("block-zero"), []byte("block-one"), []byte("block-two")}
	digests := make([][32]byte, len(blocks))
	for i, b := range blocks {
		digests[i] = sha256.Sum256(b)
	}
	oracle := func(o catalog.ObjectID) ([][32]byte, bool) {
		if o == obj {
			return digests, true
		}
		return nil, false
	}
	var err error
	med, err = mediator.NewShard(tr, "mem://mediator", oracle, mediator.ShardOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(med.Close)
	return tr, med, obj, blocks
}

// client builds a medclient for the fixture mediator.
func client(t *testing.T, tr transport.Transport) *medclient.Client {
	t.Helper()
	c, err := medclient.New(medclient.Config{Transport: tr, Seeds: []string{"mem://mediator"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// rpc speaks the tier's wire by hand, for tests that need to see the raw
// reply: req goes out in an Envelope and the enveloped answer comes back
// unwrapped.
func rpc(t *testing.T, conn transport.Conn, req protocol.Message) protocol.Message {
	t.Helper()
	const reqID = 7
	if err := conn.Send(&protocol.Envelope{ReqID: reqID, Msg: req}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	env, ok := msg.(*protocol.Envelope)
	if !ok || env.ReqID != reqID {
		t.Fatalf("request %T answered with %T %+v, want an envelope echoing id %d", req, msg, msg, reqID)
	}
	return env.Msg
}

func sealAll(t *testing.T, key [16]byte, origin, recipient core.PeerID, obj catalog.ObjectID, blocks [][]byte) []protocol.Block {
	t.Helper()
	out := make([]protocol.Block, len(blocks))
	for i, b := range blocks {
		sealed, err := mediator.Seal(key, origin, recipient, obj, uint32(i), b)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = protocol.Block{Object: obj, Index: uint32(i), Origin: origin, Recipient: recipient, Encrypted: true, Payload: sealed}
	}
	return out
}

// TestHonestExchangeReleasesKey is the happy path: sender A deposits its
// key, receiver B verifies the sealed blocks it received, gets the key, and
// decrypts.
func TestHonestExchangeReleasesKey(t *testing.T) {
	tr, _, obj, blocks := fixture(t)
	var keyA [16]byte
	copy(keyA[:], "secret-key-of-A!")
	const peerA, peerB core.PeerID = 1, 2

	sealed := sealAll(t, keyA, peerA, peerB, obj, blocks)

	clientA := client(t, tr)
	if err := clientA.Deposit(100, peerA, obj, keyA); err != nil {
		t.Fatal(err)
	}

	clientB := client(t, tr)
	key, err := clientB.Verify(100, peerB, peerA, obj, sealed[:2])
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if key != keyA {
		t.Fatal("released key differs from deposit")
	}
	// B can now decrypt everything.
	for i, sb := range sealed {
		_, _, payload, err := mediator.Open(key, obj, sb.Index, sb.Payload)
		if err != nil {
			t.Fatalf("decrypt block %d: %v", i, err)
		}
		if !bytes.Equal(payload, blocks[i]) {
			t.Fatalf("block %d corrupted", i)
		}
	}
}

// TestMiddlemanCaught reproduces the Section III-B attack: M relays A's
// sealed blocks to C while claiming to be their source. The audit decrypts
// with M's deposited key, finds garbage (or A's origin header), and refuses
// to release anything.
func TestMiddlemanCaught(t *testing.T) {
	tr, med, obj, blocks := fixture(t)
	const peerA, peerM, peerC core.PeerID = 1, 2, 3
	var keyA, keyM [16]byte
	copy(keyA[:], "key-of-honest-A!")
	copy(keyM[:], "key-of-cheater-M")

	// A seals blocks for its exchange with M (A believes M is the trader).
	sealedByA := sealAll(t, keyA, peerA, peerM, obj, blocks)

	// Both keys are escrowed for exchange 200: A's honestly, M's as the
	// claimed sender of the relayed blocks.
	depositor := client(t, tr)
	if err := depositor.Deposit(200, peerA, obj, keyA); err != nil {
		t.Fatal(err)
	}
	if err := depositor.Deposit(200, peerM, obj, keyM); err != nil {
		t.Fatal(err)
	}

	// M relays A's sealed blocks to C unchanged (it cannot re-author the
	// encrypted headers). C verifies, claiming sender M.
	clientC := client(t, tr)
	_, err := clientC.Verify(200, peerC, peerM, obj, sealedByA[:2])
	if !errors.Is(err, medclient.ErrRejected) {
		t.Fatalf("middleman relay passed the audit: %v", err)
	}
	if med.Flagged(peerM) == 0 {
		t.Fatal("mediator did not flag the middleman")
	}
}

// TestMisaddressedBlocksRejected: even with the right key, blocks sealed for
// a different recipient fail the audit (a middleman forwarding blocks that
// were addressed to it, alongside the real key, still gains nothing for the
// downstream peer).
func TestMisaddressedBlocksRejected(t *testing.T) {
	tr, _, obj, blocks := fixture(t)
	const peerA, peerM, peerC core.PeerID = 1, 2, 3
	var keyA [16]byte
	copy(keyA[:], "key-of-honest-A!")
	sealedForM := sealAll(t, keyA, peerA, peerM, obj, blocks)

	cl := client(t, tr)
	if err := cl.Deposit(300, peerA, obj, keyA); err != nil {
		t.Fatal(err)
	}
	// C claims it received these blocks from A directly.
	if _, err := cl.Verify(300, peerC, peerA, obj, sealedForM[:1]); !errors.Is(err, medclient.ErrRejected) {
		t.Fatalf("misaddressed blocks passed the audit: %v", err)
	}
}

// TestJunkContentRejected: correctly sealed and addressed blocks whose
// payload is garbage fail the oracle digest check.
func TestJunkContentRejected(t *testing.T) {
	tr, med, obj, _ := fixture(t)
	const peerA, peerB core.PeerID = 1, 2
	var keyA [16]byte
	copy(keyA[:], "key-of-junk-send")
	junk := [][]byte{[]byte("garbage-0"), []byte("garbage-1")}
	sealed := sealAll(t, keyA, peerA, peerB, obj, junk)

	cl := client(t, tr)
	if err := cl.Deposit(400, peerA, obj, keyA); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Verify(400, peerB, peerA, obj, sealed); !errors.Is(err, medclient.ErrRejected) {
		t.Fatalf("junk content passed the audit: %v", err)
	}
	if med.Flagged(peerA) == 0 {
		t.Fatal("junk sender not flagged")
	}
}

// TestVerifyWithoutDeposit: a missing escrow is a transient refusal
// (ErrNoKey), not an audit verdict, and must not flag the claimed sender —
// a shard restart that lost its deposits would otherwise brand honest
// peers.
func TestVerifyWithoutDeposit(t *testing.T) {
	tr, med, obj, blocks := fixture(t)
	var key [16]byte
	sealed := sealAll(t, key, 1, 2, obj, blocks)
	cl := client(t, tr)
	_, err := cl.Verify(500, 2, 1, obj, sealed[:1])
	if !errors.Is(err, medclient.ErrNoKey) {
		t.Fatalf("verify without deposit: %v", err)
	}
	if errors.Is(err, medclient.ErrRejected) {
		t.Fatal("missing key reported as an audit rejection")
	}
	if med.Flagged(1) != 0 {
		t.Fatal("missing deposit flagged the claimed sender")
	}
}

// TestVerifyUnknownObject: an oracle miss is the shard's own blind spot —
// the audit is refused without a verdict, and the claimed sender must not
// be flagged for it.
func TestVerifyUnknownObject(t *testing.T) {
	tr, med, _, _ := fixture(t)
	cl := client(t, tr)
	var key [16]byte
	if err := cl.Deposit(600, 1, 999, key); err != nil {
		t.Fatal(err)
	}
	sealed, err := mediator.Seal(key, 1, 2, 999, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	samples := []protocol.Block{{Object: 999, Index: 0, Payload: sealed}}
	if _, err := cl.Verify(600, 2, 1, 999, samples); !errors.Is(err, medclient.ErrBadRequest) {
		t.Fatalf("unknown object: %v, want ErrBadRequest", err)
	}
	if med.Flagged(1) != 0 {
		t.Fatal("oracle miss flagged the claimed sender")
	}
}

// TestVerifyEmptySamples: a sample-free audit is the requester's fault; it
// must be refused without branding the sender — otherwise anyone could
// frame an honest peer with an empty request naming it.
func TestVerifyEmptySamples(t *testing.T) {
	tr, med, obj, _ := fixture(t)
	cl := client(t, tr)
	var key [16]byte
	if err := cl.Deposit(700, 1, obj, key); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Verify(700, 2, 1, obj, nil); !errors.Is(err, medclient.ErrBadRequest) {
		t.Fatalf("empty samples: %v, want ErrBadRequest", err)
	}
	if med.Flagged(1) != 0 {
		t.Fatal("empty audit flagged the claimed sender")
	}
	// A wrong-object sample is equally the requester's fault.
	sealed, err := mediator.Seal(key, 1, 2, obj, 0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	wrong := []protocol.Block{{Object: obj + 1, Index: 0, Payload: sealed}}
	if _, err := cl.Verify(700, 2, 1, obj, wrong); !errors.Is(err, medclient.ErrBadRequest) {
		t.Fatalf("wrong-object sample: %v, want ErrBadRequest", err)
	}
	if med.Flagged(1) != 0 {
		t.Fatal("wrong-object sample flagged the claimed sender")
	}
}

// TestVerifyOversizedRejected pins the serve read-path limits: an audit
// claiming more samples than MaxVerifySamples is refused without a verdict
// and without any per-sample work — the in-memory transport carries message
// pointers, so the wire codec's caps never ran and the mediator must
// enforce its own.
func TestVerifyOversizedRejected(t *testing.T) {
	tr, med, obj, _ := fixture(t)
	conn, err := tr.Dial("mem://mediator")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	samples := make([]protocol.Block, mediator.MaxVerifySamples+1)
	for i := range samples {
		samples[i] = protocol.Block{Object: obj, Index: uint32(i), Payload: []byte("x")}
	}
	msg := rpc(t, conn, &protocol.MedVerify{ExchangeID: 800, Requester: 2, Sender: 1, Object: obj, Samples: samples})
	rej, ok := msg.(*protocol.MedReject)
	if !ok || rej.Code != protocol.MedRejectOversize {
		t.Fatalf("oversized verify answered with %T %+v", msg, msg)
	}
	if med.Flagged(1) != 0 {
		t.Fatal("oversized request flagged the claimed sender")
	}
	// The abusive connection is dropped...
	if _, err := conn.Recv(); err == nil {
		t.Fatal("connection survived an oversized audit")
	}
	// ...but the mediator keeps serving everyone else.
	cl := client(t, tr)
	if err := cl.Deposit(801, 1, obj, [16]byte{1}); err != nil {
		t.Fatalf("mediator unserviceable after oversized audit: %v", err)
	}
}

// TestVerifyOversizedPayloadRejected covers the byte-volume limit with a
// sample count under the cap.
func TestVerifyOversizedPayloadRejected(t *testing.T) {
	tr, _, obj, _ := fixture(t)
	conn, err := tr.Dial("mem://mediator")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := make([]byte, mediator.MaxVerifyBytes/2+1)
	samples := []protocol.Block{
		{Object: obj, Index: 0, Payload: big},
		{Object: obj, Index: 1, Payload: big},
	}
	msg := rpc(t, conn, &protocol.MedVerify{ExchangeID: 810, Requester: 2, Sender: 1, Object: obj, Samples: samples})
	if rej, ok := msg.(*protocol.MedReject); !ok || rej.Code != protocol.MedRejectOversize {
		t.Fatalf("oversized payload answered with %T %+v", msg, msg)
	}
}

// TestBareRequestClosesConnection pins the one wire: a request outside an
// Envelope gets no reply and no service — the mediator stores nothing and
// drops the connection — while enveloped clients are served as before.
func TestBareRequestClosesConnection(t *testing.T) {
	tr, _, obj, _ := fixture(t)
	conn, err := tr.Dial("mem://mediator")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&protocol.MedDeposit{ExchangeID: 820, Sender: 1, Object: obj, Key: [16]byte{1}}); err != nil {
		t.Fatal(err)
	}
	if msg, err := conn.Recv(); err == nil {
		t.Fatalf("bare deposit answered with %T, want the connection closed", msg)
	}
	cl := client(t, tr)
	if _, err := cl.Verify(820, 2, 1, obj, nil); !errors.Is(err, medclient.ErrNoKey) {
		t.Fatalf("verify of the bare deposit: %v, want ErrNoKey (nothing was escrowed)", err)
	}
}

// TestServeRejectsPathologicalFrame is the regression test for the TCP read
// path: a raw connection claiming a multi-gigabyte frame must be dropped by
// the codec's frame cap before any allocation, and the mediator must keep
// serving other clients.
func TestServeRejectsPathologicalFrame(t *testing.T) {
	obj := catalog.ObjectID(42)
	digest := sha256.Sum256([]byte("block"))
	med, err := mediator.NewShard(transport.TCP{}, "127.0.0.1:0", func(o catalog.ObjectID) ([][32]byte, bool) {
		if o == obj {
			return [][32]byte{digest}, true
		}
		return nil, false
	}, mediator.ShardOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer med.Close()

	raw, err := transport.TCP{}.Dial(med.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Reach under the framing: the transport's Conn is message-oriented, so
	// speak raw TCP for the pathological prefix.
	nc, err := rawDial(med.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(protocol.TypeMedVerify)}); err != nil {
		t.Fatal(err)
	}
	// The mediator must close the connection rather than wait for 4 GiB.
	if err := expectClosed(nc, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// A well-formed client still gets service.
	cl, err := medclient.New(medclient.Config{Transport: transport.TCP{}, Seeds: []string{med.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Deposit(900, 1, obj, [16]byte{7}); err != nil {
		t.Fatalf("mediator unserviceable after pathological frame: %v", err)
	}
}

func TestMediatorRequiresOracle(t *testing.T) {
	if _, err := mediator.NewShard(transport.NewMem(), "mem://m", nil, mediator.ShardOpts{}); err == nil {
		t.Fatal("mediator without oracle accepted")
	}
}

func TestShardOptsValidated(t *testing.T) {
	oracle := func(catalog.ObjectID) ([][32]byte, bool) { return nil, false }
	tr := transport.NewMem()
	if _, err := mediator.NewShard(tr, "mem://s", oracle, mediator.ShardOpts{Index: 3, Count: 2, Map: func() []string { return nil }}); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if _, err := mediator.NewShard(tr, "mem://s", oracle, mediator.ShardOpts{Index: 0, Count: 2}); err == nil {
		t.Fatal("sharded mediator without a topology map accepted")
	}
}

func TestMediatorCloseIdempotent(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	_, med, _, _ := fixture(t)
	med.Close()
	med.Close()
}

// TestMediatorCloseWithIdleClient is the regression test for the shutdown
// hang: a connected client that never sends anything used to park a serve
// goroutine in Recv forever, so Close's wg.Wait never returned.
func TestMediatorCloseWithIdleClient(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	tr, med, _, _ := fixture(t)
	idle, err := tr.Dial("mem://mediator")
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// Let the mediator accept the connection and park in Recv.
	probe := client(t, tr)
	if err := probe.Deposit(1, 1, 42, [16]byte{1}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		med.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Mediator.Close hung on an idle client connection")
	}
}

// TestMediatorManyConcurrentClients exercises accept/serve/teardown under a
// crowd: dozens of clients deposit and verify at once, then Close must still
// return promptly with half of them left connected and idle.
func TestMediatorManyConcurrentClients(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	tr, med, obj, blocks := fixture(t)
	const clients = 40
	var wg sync.WaitGroup
	idle := make([]transport.Conn, 0, clients/2)
	var idleMu sync.Mutex
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var key [16]byte
			key[0] = byte(i + 1)
			ex := uint64(1000 + i)
			sender := core.PeerID(i + 1)
			if i%2 == 0 {
				c, err := medclient.New(medclient.Config{Transport: tr, Seeds: []string{"mem://mediator"}})
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				defer c.Close()
				if err := c.Deposit(ex, sender, obj, key); err != nil {
					t.Errorf("client %d deposit: %v", i, err)
					return
				}
				sealed := sealAll(t, key, sender, sender+1, obj, blocks)
				if _, err := c.Verify(ex, sender+1, sender, obj, sealed[:1]); err != nil {
					t.Errorf("client %d verify: %v", i, err)
				}
				return
			}
			conn, err := tr.Dial("mem://mediator")
			if err != nil {
				t.Errorf("client %d dial: %v", i, err)
				return
			}
			idleMu.Lock()
			idle = append(idle, conn) // stays connected, never speaks
			idleMu.Unlock()
		}(i)
	}
	wg.Wait()
	done := make(chan struct{})
	go func() {
		med.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Mediator.Close hung with idle clients connected")
	}
	for _, c := range idle {
		c.Close()
	}
}
