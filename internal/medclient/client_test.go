package medclient

import (
	"crypto/sha256"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/mediator"
	"barter/internal/protocol"
	"barter/internal/testutil"
	"barter/internal/transport"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("config without transport accepted")
	}
	if _, err := New(Config{Transport: transport.NewMem()}); err == nil {
		t.Fatal("config without seeds accepted")
	}
}

func oracleFor(obj catalog.ObjectID, content []byte) mediator.DigestOracle {
	digest := sha256.Sum256(content)
	return func(o catalog.ObjectID) ([][32]byte, bool) {
		if o == obj {
			return [][32]byte{digest}, true
		}
		return nil, false
	}
}

func TestUnavailableAfterRetries(t *testing.T) {
	tr := transport.NewMem()
	c, err := New(Config{
		Transport: tr,
		Seeds:     []string{"mem://nobody-home"},
		Attempts:  3,
		Backoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Deposit(1, 1, 1, [16]byte{1})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("deposit against an empty network: %v", err)
	}
}

// TestRetryRidesThroughRestart kills a standalone mediator and restarts it
// at the same address while an operation is mid-retry: the backoff loop
// must pick up the fresh instance without caller involvement.
func TestRetryRidesThroughRestart(t *testing.T) {
	tr := transport.NewMem()
	obj := catalog.ObjectID(7)
	oracle := oracleFor(obj, []byte("content"))
	med, err := mediator.NewShard(tr, "mem://solo", oracle, mediator.ShardOpts{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Transport: tr, Seeds: []string{"mem://solo"}, Attempts: 8, Backoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Prime the map and the pooled connection, then kill the mediator.
	if err := c.Deposit(1, 1, obj, [16]byte{1}); err != nil {
		t.Fatal(err)
	}
	med.Close()

	done := make(chan error, 1)
	go func() { done <- c.Deposit(2, 1, obj, [16]byte{2}) }()
	time.Sleep(20 * time.Millisecond)
	med2, err := mediator.NewShard(tr, "mem://solo", oracle, mediator.ShardOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer med2.Close()
	if err := <-done; err != nil {
		t.Fatalf("deposit did not ride through the restart: %v", err)
	}
}

// TestCloseAbortsRetries: Close while an operation is backing off must
// surface ErrClosed promptly instead of sleeping out the whole schedule.
func TestCloseAbortsRetries(t *testing.T) {
	tr := transport.NewMem()
	c, err := New(Config{
		Transport: tr,
		Seeds:     []string{"mem://nobody"},
		Attempts:  50,
		Backoff:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Deposit(1, 1, 1, [16]byte{}) }()
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("aborted op returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("op survived Close")
	}
	if time.Since(start) > time.Second {
		t.Fatal("Close took too long to abort the retry loop")
	}
	// Post-close operations fail immediately.
	if err := c.Deposit(2, 1, 1, [16]byte{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close deposit: %v", err)
	}
}

// TestConnPooling: repeated operations to one shard reuse a single pooled
// connection rather than dialing per call.
func TestConnPooling(t *testing.T) {
	tr := transport.NewMem()
	obj := catalog.ObjectID(2)
	med, err := mediator.NewShard(tr, "mem://pooled", oracleFor(obj, []byte("x")), mediator.ShardOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer med.Close()
	c, err := New(Config{Transport: tr, Seeds: []string{"mem://pooled"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		if err := c.Deposit(uint64(i), 1, obj, [16]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n := len(c.conns)
	c.mu.Unlock()
	if n != 1 {
		t.Fatalf("pool holds %d connections after 20 ops on one shard, want 1", n)
	}
}

// TestConcurrentOps hammers one client from many goroutines; the per-conn
// serialization must keep every reply matched to its caller.
func TestConcurrentOps(t *testing.T) {
	tr := transport.NewMem()
	content := []byte("shared-content")
	digest := sha256.Sum256(content)
	oracle := func(o catalog.ObjectID) ([][32]byte, bool) { return [][32]byte{digest}, true }
	cl, err := mediator.NewClusterOpts(tr, []string{"mem://cc-0", "mem://cc-1", "mem://cc-2"}, oracle, mediator.ClusterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := New(Config{Transport: tr, Seeds: cl.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			obj := catalog.ObjectID(i + 1)
			ex := uint64(i + 1)
			sender := coreid(i + 10)
			var key [16]byte
			key[0] = byte(i + 1)
			if err := c.Deposit(ex, sender, obj, key); err != nil {
				t.Errorf("deposit %d: %v", i, err)
				return
			}
			sealed, err := mediator.Seal(key, sender, sender+1, obj, 0, content)
			if err != nil {
				t.Errorf("seal %d: %v", i, err)
				return
			}
			got, err := c.Verify(ex, sender+1, sender, obj, []protocol.Block{{Object: obj, Index: 0, Payload: sealed}})
			if err != nil {
				t.Errorf("verify %d: %v", i, err)
				return
			}
			if got != key {
				t.Errorf("verify %d: reply crossed callers (got key %v)", i, got[0])
			}
		}(i)
	}
	wg.Wait()
}

// coreid shortens the PeerID conversions above.
func coreid(i int) core.PeerID { return core.PeerID(i) }

// pipelineStub is a fake single-shard tier that withholds deposit replies
// until `depth` requests are in flight on one connection, then answers them
// in reverse arrival order. It pins the two demux properties at once: the
// client genuinely pipelines (depth requests outstanding before any reply)
// and replies are matched by ReqID, not arrival order.
type pipelineStub struct {
	ln    transport.Listener
	depth int
	wg    sync.WaitGroup
}

func newPipelineStub(t *testing.T, tr transport.Transport, addr string, depth int) *pipelineStub {
	t.Helper()
	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &pipelineStub{ln: ln, depth: depth}
	s.wg.Add(1)
	go s.accept()
	t.Cleanup(func() {
		ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *pipelineStub) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			var held []*protocol.Envelope // deposits awaiting the batch flush
			for {
				msg, err := conn.Recv()
				if err != nil {
					return
				}
				env, ok := msg.(*protocol.Envelope)
				if !ok {
					continue
				}
				if _, ok := env.Msg.(*protocol.MedDeposit); ok {
					held = append(held, env)
					if len(held) < s.depth {
						continue
					}
					for i := len(held) - 1; i >= 0; i-- {
						dep := held[i].Msg.(*protocol.MedDeposit)
						_ = conn.Send(&protocol.Envelope{ReqID: held[i].ReqID, Msg: &protocol.MedKey{
							ExchangeID: dep.ExchangeID,
							Key:        dep.Key,
						}})
					}
					held = held[:0]
				}
			}
		}()
	}
}

// TestPipelinedOutOfOrderReplies: eight concurrent deposits against a shard
// that replies to nothing until all eight are queued on the wire, then
// answers newest-first. Every call must still complete with its own ack.
func TestPipelinedOutOfOrderReplies(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	const depth = 8
	tr := transport.NewMem()
	newPipelineStub(t, tr, "mem://pipe-stub", depth)
	c, err := New(Config{Transport: tr, Seeds: []string{"mem://pipe-stub"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make([]error, depth)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Deposit(uint64(i+1), coreid(i+1), catalog.ObjectID(1), [16]byte{byte(i + 1)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pipelined deposit %d: %v", i, err)
		}
	}
}

// TestPipelinedFailover: sixteen verifies launched together against a
// durable two-shard tier whose shards are both killed and restarted while
// the calls are in flight. Every call must return exactly once, with its
// own exchange's key — no reply crossing callers, none lost, none doubled.
func TestPipelinedFailover(t *testing.T) {
	testutil.CheckGoroutineLeaks(t, 0)
	const calls = 16
	tr := transport.NewMem()
	content := []byte("failover-content")
	digest := sha256.Sum256(content)
	oracle := func(o catalog.ObjectID) ([][32]byte, bool) { return [][32]byte{digest}, true }
	cl, err := mediator.NewClusterOpts(tr, []string{"mem://pf-0", "mem://pf-1"}, oracle,
		mediator.ClusterOpts{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := New(Config{Transport: tr, Seeds: cl.Addrs(), Attempts: 100, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type fixture struct {
		obj    catalog.ObjectID
		ex     uint64
		sender core.PeerID
		key    [16]byte
		sealed []byte
	}
	fixtures := make([]fixture, calls)
	for i := range fixtures {
		f := fixture{obj: catalog.ObjectID(i + 1), ex: uint64(i + 1), sender: coreid(i + 10)}
		f.key[0] = byte(i + 1)
		if err := c.Deposit(f.ex, f.sender, f.obj, f.key); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
		sealed, err := mediator.Seal(f.key, f.sender, f.sender+1, f.obj, 0, content)
		if err != nil {
			t.Fatal(err)
		}
		f.sealed = sealed
		fixtures[i] = f
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	var succeeded int32
	for i := range fixtures {
		wg.Add(1)
		go func(f fixture) {
			defer wg.Done()
			<-start
			got, err := c.Verify(f.ex, f.sender+1, f.sender, f.obj, []protocol.Block{
				{Object: f.obj, Index: 0, Payload: f.sealed},
			})
			if err != nil {
				t.Errorf("verify %d: %v", f.ex, err)
				return
			}
			if got != f.key {
				t.Errorf("verify %d: reply crossed callers (got key %v)", f.ex, got[0])
				return
			}
			atomic.AddInt32(&succeeded, 1)
		}(fixtures[i])
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let the wave hit the wire
	for i := 0; i < cl.Shards(); i++ {
		cl.KillShard(i)
	}
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < cl.Shards(); i++ {
		if err := cl.RestartShard(i); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if n := atomic.LoadInt32(&succeeded); n != calls {
		t.Fatalf("%d of %d pipelined verifies completed exactly once", n, calls)
	}
}

// TestRestartKeepsTCPAddresses restarts every shard of a TCP tier under a
// running client. A shard comes back on the port it first bound, so the
// client's address list still names the whole tier: the next deposit and
// audit succeed, and the pool holds at most one connection per shard, each to
// a current address.
func TestRestartKeepsTCPAddresses(t *testing.T) {
	const shards = 2
	tr := transport.TCP{}
	content := []byte("restart-content")
	oracle := oracleFor(7, content)
	cl, err := mediator.NewClusterOpts(tr, []string{"127.0.0.1:0", "127.0.0.1:0"}, oracle, mediator.ClusterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := New(Config{Transport: tr, Seeds: cl.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const obj catalog.ObjectID = 7
	const sender, receiver core.PeerID = 1, 2
	key := [16]byte{7}
	if err := c.Deposit(1, sender, obj, key); err != nil {
		t.Fatal(err)
	}
	before := cl.Addrs()
	for i := 0; i < shards; i++ {
		if err := cl.RestartShard(i); err != nil {
			t.Fatal(err)
		}
	}

	// The restarts dropped the in-memory escrow: deposit anew, then audit.
	if err := c.Deposit(2, sender, obj, key); err != nil {
		t.Fatalf("deposit after the restarts: %v", err)
	}
	sealed, err := mediator.Seal(key, sender, receiver, obj, 0, content)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Verify(2, receiver, sender, obj, []protocol.Block{{Object: obj, Index: 0, Payload: sealed}})
	if err != nil {
		t.Fatalf("verify after the restarts: %v", err)
	}
	if got != key {
		t.Fatal("verify after the restarts released the wrong key")
	}

	if after := cl.Addrs(); !slices.Equal(after, before) {
		t.Fatalf("the restarts moved the tier from %v to %v", before, after)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.conns) > shards {
		t.Fatalf("%d pooled connections for a %d-shard tier", len(c.conns), shards)
	}
	for a := range c.conns {
		if !slices.Contains(before, a) {
			t.Fatalf("pooled connection to %s; the tier is at %v", a, before)
		}
	}
}
