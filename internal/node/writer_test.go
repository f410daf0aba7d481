package node

import (
	"slices"
	"sync"
	"testing"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/protocol"
	"barter/internal/transport"
)

// sendConn is a Conn without SendBatch — the shape of a decorator that
// embeds transport.Conn — recording every message it is handed.
type sendConn struct {
	mu   sync.Mutex
	msgs []protocol.Message
}

func (c *sendConn) Send(msg protocol.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, msg)
	return nil
}

func (c *sendConn) Recv() (protocol.Message, error) { return nil, transport.ErrClosed }
func (c *sendConn) Close() error                    { return nil }
func (c *sendConn) RemoteAddr() string              { return "fake" }

func (c *sendConn) sent() []protocol.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.msgs)
}

// batchConn adds SendBatch, keeping each batch it is handed — the slice
// itself, so the test can see the writer clear it afterwards.
type batchConn struct {
	sendConn
	batches [][]protocol.Message
}

func (c *batchConn) SendBatch(msgs []protocol.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, msgs...)
	c.batches = append(c.batches, msgs)
	return nil
}

// runWriter queues msgs on a connection before its writer starts, starts
// the writer, and returns once conn has recorded them all.
func runWriter(t *testing.T, conn interface {
	transport.Conn
	sent() []protocol.Message
}, msgs []protocol.Message) {
	t.Helper()
	n := &Node{stop: make(chan struct{})}
	pc := &peerConn{n: n, conn: conn, sendQ: make(chan protocol.Message, sendQueue)}
	for _, msg := range msgs {
		pc.sendQ <- msg
	}
	n.wg.Add(1)
	go n.writeLoop(pc)
	defer func() {
		close(n.stop)
		n.wg.Wait()
	}()
	waitUntil(t, "the writer sends every queued message", func() bool { return len(conn.sent()) == len(msgs) })
	if !slices.Equal(conn.sent(), msgs) {
		t.Fatal("the writer reordered the send queue")
	}
}

// TestWriteLoopBatches: frames queued before the writer wakes go out in
// queue order across batch boundaries, at most writeBatch per write, and no
// batch keeps a message once its write returns. A Conn without SendBatch
// gets every frame through Send, in order.
func TestWriteLoopBatches(t *testing.T) {
	msgs := make([]protocol.Message, 2*writeBatch+5)
	for i := range msgs {
		msgs[i] = &protocol.BlockAck{Object: 1, Index: uint32(i)}
	}

	t.Run("batcher", func(t *testing.T) {
		c := &batchConn{}
		runWriter(t, c, msgs)
		c.mu.Lock()
		defer c.mu.Unlock()
		var sizes []int
		for _, b := range c.batches {
			sizes = append(sizes, len(b))
		}
		if want := []int{writeBatch, writeBatch, 5}; !slices.Equal(sizes, want) {
			t.Fatalf("%d queued messages went out in writes of %v frames, want %v", len(msgs), sizes, want)
		}
		for i, b := range c.batches {
			for _, m := range b {
				if m != nil {
					t.Fatalf("write %d's batch still holds %T after the write", i, m)
				}
			}
		}
	})

	t.Run("send only", func(t *testing.T) {
		c := &sendConn{}
		runWriter(t, c, msgs)
	})
}

// TestWriteErrorDropsConnection: a write that fails — here the deadline
// against a peer that stopped reading — closes its connection, so the
// uploader drops the stalled upload at once and its only slot serves the
// next downloader, instead of holding it until a queue overflow or a read
// deadline.
func TestWriteErrorDropsConnection(t *testing.T) {
	const blockSize, blocks = 64 << 10, 512 // 32 MiB: far more than loopback socket buffers hold
	tn := &testNet{t: t, tr: transport.TCP{WriteTimeout: 100 * time.Millisecond}, addrs: make(map[core.PeerID]string)}
	tcp := func(c *Config) { c.Addr, c.BlockSize, c.UploadSlots = "127.0.0.1:0", blockSize, 1 }
	holder := tn.spawn(1, tcp)
	big, small := catalog.ObjectID(1), catalog.ObjectID(2)
	holder.AddObject(big, payload(big, blocks*blockSize))
	holder.AddObject(small, payload(small, 3*blockSize))

	// The staller reads the manifest, grants itself the whole object and
	// then acknowledges blocks it never reads: the holder keeps queueing
	// blocks until its write stalls on the full socket and times out.
	r := dialRaw(tn, 9, holder)
	r.send(&protocol.Request{Object: big, Tree: core.Tree{Root: r.id}})
	m := recvRaw[*protocol.Manifest](r)
	r.send(&protocol.StripeGrant{Object: big, Session: m.Session, Stripe: 0, Stripes: 1})
	for i := range uint32(blocks * 3 / 4) {
		if r.conn.Send(&protocol.BlockAck{Object: big, Index: i, Session: m.Session, OK: true}) != nil {
			break // the holder already gave up on us
		}
	}

	dl := tn.spawn(2, tcp)
	start := time.Now()
	if err := WaitFor(dl.Download(small, map[core.PeerID]string{1: tn.addrOf(1)}), 10*time.Second); err != nil {
		t.Fatalf("the honest downloader was not served while the staller held the only slot: %v", err)
	}
	var stalled, registered bool
	holder.call(func() {
		_, stalled = holder.uploads[upKey{to: r.id, object: big}]
		_, registered = holder.conns[r.id]
	})
	if stalled || registered {
		t.Fatalf("after the stalled write the holder still has the upload (%v) or the connection (%v)", stalled, registered)
	}
	t.Logf("served %v after the staller's acks", time.Since(start))
}
