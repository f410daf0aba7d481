package transport

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/protocol"
)

// exercise runs the shared transport contract against any implementation.
func exercise(t *testing.T, tr Transport, addr string) {
	t.Helper()

	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close() //nolint:errcheck // test cleanup

	type accepted struct {
		conn Conn
		err  error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		acceptCh <- accepted{conn: c, err: err}
	}()

	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close() //nolint:errcheck // test cleanup

	acc := <-acceptCh
	if acc.err != nil {
		t.Fatalf("Accept: %v", acc.err)
	}
	server := acc.conn
	defer server.Close() //nolint:errcheck // test cleanup

	// Bidirectional traffic.
	if err := client.Send(&protocol.Hello{Peer: 1, Sharing: true}); err != nil {
		t.Fatalf("client Send: %v", err)
	}
	msg, err := server.Recv()
	if err != nil {
		t.Fatalf("server Recv: %v", err)
	}
	hello, ok := msg.(*protocol.Hello)
	if !ok || hello.Peer != 1 || !hello.Sharing {
		t.Fatalf("server got %+v", msg)
	}
	if err := server.Send(&protocol.BlockAck{Object: 9, Index: 3, OK: true}); err != nil {
		t.Fatalf("server Send: %v", err)
	}
	back, err := client.Recv()
	if err != nil {
		t.Fatalf("client Recv: %v", err)
	}
	if ack, ok := back.(*protocol.BlockAck); !ok || ack.Object != 9 {
		t.Fatalf("client got %+v", back)
	}

	// Ordering under concurrency: many messages from one side arrive in
	// send order.
	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := client.Send(&protocol.BlockAck{Index: uint32(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if ack := m.(*protocol.BlockAck); ack.Index != uint32(i) {
			t.Fatalf("out of order: got %d want %d", ack.Index, i)
		}
	}
	wg.Wait()

	// Close tears down Recv.
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := server.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv after peer close returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not observe peer close")
	}
}

func TestMemTransportContract(t *testing.T) {
	exercise(t, NewMem(), "mem://contract")
}

func TestTCPTransportContract(t *testing.T) {
	exercise(t, TCP{}, "127.0.0.1:0")
}

func TestMemDialUnknownAddress(t *testing.T) {
	m := NewMem()
	if _, err := m.Dial("mem://nowhere"); err == nil {
		t.Fatal("Dial to unknown address succeeded")
	}
}

func TestMemDuplicateListen(t *testing.T) {
	m := NewMem()
	if _, err := m.Listen("mem://dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Listen("mem://dup"); err == nil {
		t.Fatal("duplicate Listen succeeded")
	}
}

func TestMemAutoAddress(t *testing.T) {
	m := NewMem()
	a, err := m.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr() == b.Addr() || a.Addr() == "" {
		t.Fatalf("auto addresses not unique: %q vs %q", a.Addr(), b.Addr())
	}
}

func TestMemListenerCloseUnblocksAccept(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("mem://closing")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Accept err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
	// Address is released for reuse.
	if _, err := m.Listen("mem://closing"); err != nil {
		t.Fatalf("re-Listen after Close: %v", err)
	}
}

// TestMemListenerCloseResetsBacklog: a connection dialled into a listener
// that closes before accepting it must fail its I/O, as a TCP reset would —
// not leave the dialer blocked in Recv, or in Send once the pipe fills, on a
// peer half nobody holds. A Dial that finds the listener already closing
// (the other way the race can fall) is refused outright.
func TestMemListenerCloseResetsBacklog(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("mem://orphan")
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Dial("mem://orphan")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	go func() {
		// More sends than the pipe buffers: the last ones would block.
		var err error
		for i := 0; i < 200 && err == nil; i++ {
			err = c.Send(&protocol.RingQuit{RingID: 1})
		}
		done <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("I/O on an orphaned connection: err = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("I/O on a connection orphaned in a closed listener's backlog blocked")
		}
	}

	// The closing side of the race: the dialer holds the listener, Close
	// runs, then the connection is queued. Dial must notice and refuse.
	m2 := NewMem()
	l2, err := m2.Listen("mem://orphan")
	if err != nil {
		t.Fatal(err)
	}
	ml := l2.(*memListener)
	close(ml.done) // Close's first step, with the registry entry still there
	if c, err := m2.Dial("mem://orphan"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Dial into a closing listener = %v, %v; want ErrClosed", c, err)
	}
}

func TestMemSendAfterCloseFails(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("mem://x")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := l.Accept()
		if err == nil {
			_ = c.Close()
		}
	}()
	c, err := m.Dial("mem://x")
	if err != nil {
		t.Fatal(err)
	}
	// Either endpoint closing kills the pair.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := c.Send(&protocol.RingQuit{RingID: 1}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Send kept succeeding after peer close")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMemDrainsQueuedMessagesOnClose(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("mem://drain")
	if err != nil {
		t.Fatal(err)
	}
	serverCh := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			serverCh <- c
		}
	}()
	client, err := m.Dial("mem://drain")
	if err != nil {
		t.Fatal(err)
	}
	server := <-serverCh
	if err := client.Send(&protocol.RingQuit{RingID: 42}); err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	msg, err := server.Recv()
	if err != nil {
		t.Fatalf("queued message lost on close: %v", err)
	}
	if q, ok := msg.(*protocol.RingQuit); !ok || q.RingID != 42 {
		t.Fatalf("got %+v", msg)
	}
}

// TestTCPReadDeadline: with a ReadTimeout armed, a Recv from a peer that
// never speaks fails instead of blocking forever (the hung-peer wedge the
// swarm's churn scenario would otherwise hit over TCP).
func TestTCPReadDeadline(t *testing.T) {
	tr := TCP{ReadTimeout: 100 * time.Millisecond}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck // test cleanup
	errCh := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			errCh <- err
			return
		}
		defer c.Close()   //nolint:errcheck // test cleanup
		_, err = c.Recv() // the dialer never sends
		errCh <- err
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck // test cleanup
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Recv from a silent peer returned nil error")
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("Recv err = %v, want a net timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv ignored the read deadline")
	}
}

// TestTCPReadDeadlineOnDialedConn mirrors TestTCPReadDeadline from the
// dialer's side: deadlines must be armed on outbound connections too, and
// the connection must close cleanly after the expiry.
func TestTCPReadDeadlineOnDialedConn(t *testing.T) {
	tr := TCP{ReadTimeout: 100 * time.Millisecond}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck // test cleanup
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Recv() // the acceptor never sends
	if err == nil {
		t.Fatal("Recv from a silent listener returned nil error")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Recv err = %v, want a net timeout", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("read deadline fired far too late")
	}
	// The op failed; the connection still closes cleanly, exactly once.
	if err := c.Close(); err != nil {
		t.Fatalf("Close after read expiry: %v", err)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("Recv succeeded on a closed connection")
	}
	select {
	case sc := <-accepted:
		sc.Close() //nolint:errcheck // test cleanup
	default:
	}
}

// TestTCPWriteDeadline: with a WriteTimeout armed, sending into a peer
// that never reads must fail once the socket buffers fill, instead of
// wedging the writer goroutine (and its upload slot) forever — and the
// connection must still close cleanly afterwards. One deadline covers a
// whole SendBatch, so a batch fails the same way.
func TestTCPWriteDeadline(t *testing.T) {
	msg := &protocol.Block{Object: 1, Payload: make([]byte, 1<<20)}
	for _, tc := range []struct {
		name string
		send func(Conn) error
	}{
		{"Send", func(c Conn) error { return c.Send(msg) }},
		{"SendBatch", func(c Conn) error {
			return c.(Batcher).SendBatch([]protocol.Message{msg, &protocol.BlockAck{Object: 1}, msg})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := TCP{WriteTimeout: 100 * time.Millisecond}
			l, err := tr.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close() //nolint:errcheck // test cleanup
			accepted := make(chan Conn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					accepted <- c // never Recv: the socket buffers must fill
				}
			}()
			c, err := tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close() //nolint:errcheck // test cleanup

			var sendErr error
			deadline := time.Now().Add(15 * time.Second)
			for i := 0; i < 256 && sendErr == nil; i++ {
				if time.Now().After(deadline) {
					t.Fatal("write deadline never fired despite an unread flood")
				}
				sendErr = tc.send(c)
			}
			if sendErr == nil {
				t.Fatal("256 sends of at least 1 MiB queued against a non-reading peer without an error")
			}
			var ne net.Error
			if !errors.As(sendErr, &ne) || !ne.Timeout() {
				t.Fatalf("send err = %v, want a net timeout", sendErr)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("Close after write expiry: %v", err)
			}
			if err := tc.send(c); err == nil {
				t.Fatal("send succeeded on a closed connection")
			}
			select {
			case sc := <-accepted:
				sc.Close() //nolint:errcheck // test cleanup
			case <-time.After(5 * time.Second):
				t.Fatal("listener never accepted")
			}
		})
	}
}

// TestTCPNoDeadlineByDefault: the zero-value transport must not time out a
// quiet but healthy connection (compatibility with existing deployments).
func TestTCPNoDeadlineByDefault(t *testing.T) {
	tr := TCP{}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck // test cleanup
	got := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			got <- err
			return
		}
		defer c.Close() //nolint:errcheck // test cleanup
		_, err = c.Recv()
		got <- err
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck // test cleanup
	// Stay silent past any plausible accidental deadline, then speak.
	time.Sleep(300 * time.Millisecond)
	if err := c.Send(&protocol.Hello{Peer: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("Recv on an idle default connection failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived")
	}
}

// TestTCPDeadlineContract: a transport with generous deadlines still passes
// the full transport contract (deadlines are re-armed per operation, not
// absolute).
func TestTCPDeadlineContract(t *testing.T) {
	exercise(t, TCP{ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second}, "127.0.0.1:0")
}

func TestTCPLargeMessage(t *testing.T) {
	tr := TCP{}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck // test cleanup
	got := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close() //nolint:errcheck // test cleanup
		if m, err := c.Recv(); err == nil {
			got <- m.(*protocol.Block).Payload
		}
	}()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck // test cleanup
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := c.Send(&protocol.Block{Object: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if len(p) != len(payload) || p[12345] != payload[12345] {
			t.Fatal("large payload corrupted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("large message never arrived")
	}
}

// TestTCPBlockWireBytes pins the gathered block send from both sides. What
// tcpConn.Send puts on the socket — head from its scratch, then the payload
// from where it lies — is byte for byte protocol.AppendEncode's one-buffer
// frame, so a peer on either side of this change reads the other. And a
// steady-state Send of a block allocates nothing that grows with the payload:
// at most one small allocation, against the 16 KiB it carries.
func TestTCPBlockWireBytes(t *testing.T) {
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close() //nolint:errcheck // test cleanup
	c, err := TCP{}.Dial(nl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck // test cleanup
	raw, err := nl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close() //nolint:errcheck // test cleanup

	rnd := rand.New(rand.NewSource(19))
	got := make([]byte, 0, 64<<10)
	for _, size := range []int{0, 1, 37, 4096, 16 << 10, 40_000} {
		blk := &protocol.Block{
			Object: catalog.ObjectID(rnd.Int31()), Index: rnd.Uint32(), RingID: rnd.Uint64(), Session: rnd.Uint64(),
			Origin: core.PeerID(rnd.Int31()), Recipient: core.PeerID(rnd.Int31()), Encrypted: size%2 == 1,
			Payload: make([]byte, size),
		}
		rnd.Read(blk.Payload)
		want, err := protocol.AppendEncode(nil, blk)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(blk); err != nil {
			t.Fatal(err)
		}
		got = got[:len(want)]
		if _, err := io.ReadFull(raw, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte block: wire bytes differ from AppendEncode", size)
		}
	}

	// The drain reads into one retained buffer, so the only allocations the
	// process makes while Send runs are Send's own.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, err := raw.Read(got[:cap(got)]); err != nil {
				return
			}
		}
	}()
	blk := &protocol.Block{Object: 7, Index: 3, Session: 99, Origin: 1, Recipient: 2, Payload: make([]byte, 16<<10)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		if err := c.Send(blk); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&m1)
	if allocs > 1 {
		t.Errorf("Send of a 16 KiB block: %v allocations, want at most 1", allocs)
	}
	if perSend := (m1.TotalAlloc - m0.TotalAlloc) / runs; perSend > 1<<10 {
		t.Errorf("Send of a 16 KiB block allocated %d bytes per call", perSend)
	}
	c.Close() //nolint:errcheck // unblocks the drain
	<-drained
}

// TestSendBatchWireIdentical: one SendBatch puts on the socket exactly the
// concatenation of its messages' AppendEncode frames — payload and empty
// Blocks, a small message, an Envelope and a Request with a tree — so a
// receiver cannot tell a batch from single Sends, and Recv returns the same
// messages in order.
func TestSendBatchWireIdentical(t *testing.T) {
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close() //nolint:errcheck // test cleanup
	c, err := TCP{}.Dial(nl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck // test cleanup
	raw, err := nl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close() //nolint:errcheck // test cleanup

	payload := make([]byte, 5000)
	rand.New(rand.NewSource(33)).Read(payload)
	batch := []protocol.Message{
		&protocol.Block{Object: 4, Index: 9, Session: 77, Origin: 1, Recipient: 2, Payload: payload},
		&protocol.Block{Object: 4, Index: 10, Session: 77, Origin: 1, Recipient: 2, Payload: []byte{}},
		&protocol.BlockAck{Object: 4, Index: 9, Session: 77, OK: true},
		&protocol.Envelope{ReqID: 5, Msg: &protocol.MedVerify{
			ExchangeID: 3, Requester: 2, Sender: 1, Object: 4,
			Samples: []protocol.Block{{Object: 4, Index: 1, Payload: []byte("sample")}},
		}},
		&protocol.Request{Object: 6, Tree: core.Tree{Root: 2, Nodes: []core.TreeNode{
			{Peer: 3, Object: 7, Parent: -1}, {Peer: 5, Object: 8, Parent: 0},
		}}},
	}
	var want []byte
	for _, msg := range batch {
		if want, err = protocol.AppendEncode(want, msg); err != nil {
			t.Fatal(err)
		}
	}

	send := func() {
		t.Helper()
		if err := c.(Batcher).SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	send()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(raw, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("batch wire bytes differ from the concatenated AppendEncode frames")
	}

	send()
	rc := newTCPConn(raw, 0, 0)
	for i, sent := range batch {
		msg, err := rc.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if !reflect.DeepEqual(msg, sent) {
			t.Fatalf("Recv %d returned %+v, sent %+v", i, msg, sent)
		}
	}
}
