// Package medclient is the node-side client layer of the mediator tier. It is
// given every shard's address, in shard-index order: addresses are fixed at
// start and a restart re-binds its own, so that list is the whole topology.
// It pools one connection per shard, routes every escrow and audit to the
// owning shard by the same consistent hashing the shards use, retries with
// exponential backoff, and fails over to the replica shard when a mediator
// dies mid-verify — where it finds the copy of the escrowed key that the
// primary shard wrote through.
//
// RPCs are pipelined: every request travels in a protocol.Envelope carrying
// a client-unique ReqID, each pooled connection runs a demultiplexing read
// loop that routes enveloped replies back to their in-flight caller, and so
// deposits and verifies from many goroutines share one connection
// concurrently instead of queueing on a per-connection lock. A
// connection failure fails exactly the RPCs in flight on it — each one's
// own retry loop re-issues it through failover, so one caller's crash
// recovery never replays another caller's request.
package medclient

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/mediator"
	"barter/internal/perfstats"
	"barter/internal/protocol"
	"barter/internal/transport"
)

// Errors surfaced to callers. ErrRejected and ErrNoKey are verdicts — the
// owning shard answered — and are never retried; ErrUnavailable means every
// attempt failed to get a verdict at all.
var (
	// ErrClosed is returned once Close has been called.
	ErrClosed = errors.New("medclient: closed")
	// ErrRejected is the mediator's audit verdict: the samples prove the
	// claimed sender cheated.
	ErrRejected = mediator.ErrRejected
	// ErrNoKey means the owning shard holds no escrowed key for the claimed
	// sender — transient: the deposit has not arrived yet, or the shard
	// restarted and lost its escrow. Not evidence of cheating.
	ErrNoKey = errors.New("medclient: no escrowed key for exchange")
	// ErrBadRequest means the mediator refused the request without judging
	// it — it was malformed, exceeded the audit limits, or reached a shard
	// that does not own the object. The requester's own fault; never a
	// verdict against the sender.
	ErrBadRequest = errors.New("medclient: mediator refused the request")
	// ErrUnavailable means the whole tier was unreachable through every
	// retry and failover attempt.
	ErrUnavailable = errors.New("medclient: mediator tier unavailable")
)

// Config parameterizes a client. Transport and at least one seed address
// are required.
type Config struct {
	// Transport carries the protocol; required.
	Transport transport.Transport
	// Seeds is every shard's address in shard-index order (Cluster.Addrs,
	// or mediatord's -shardmap), or the one address of a standalone
	// mediator.
	Seeds []string
	// Attempts bounds how many times one operation is tried before
	// ErrUnavailable; attempts alternate between the owning shard and its
	// replica (default 5).
	Attempts int
	// Backoff is the delay before the second attempt, doubling per attempt
	// (default 8ms).
	Backoff time.Duration
	// Logf, when set, receives debug lines.
	Logf func(format string, args ...any)
}

// Client is a shard-aware mediator client, safe for concurrent use.
// Operations to distinct shards proceed in parallel, and operations on one
// shard's connection are pipelined: each request carries a unique envelope
// ReqID and the connection's read loop hands every reply to the caller that
// sent it.
type Client struct {
	cfg Config

	mu     sync.Mutex
	conns  map[string]*shardConn
	closed bool

	nextReq atomic.Uint64 // envelope ReqID source, unique across connections
	wg      sync.WaitGroup
	stop    chan struct{}
}

// shardConn is one pooled connection plus its demultiplexing state: the
// in-flight table maps each outstanding envelope ReqID to the channel its
// caller waits on. A read loop owns the receive side; once it exits, err
// holds the terminal transport error and every later register fails fast
// with it.
type shardConn struct {
	conn transport.Conn

	mu       sync.Mutex
	inflight map[uint64]chan rpcResult
	err      error
}

// rpcResult is one reply (or the connection's terminal error) delivered to
// a waiting caller; each in-flight RPC receives exactly one.
type rpcResult struct {
	msg protocol.Message
	err error
}

// register enters an in-flight RPC in the demux table, refusing if the
// connection already died so the caller retries elsewhere immediately.
func (sc *shardConn) register(id uint64, ch chan rpcResult) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.err != nil {
		return sc.err
	}
	sc.inflight[id] = ch
	return nil
}

// unregister abandons an in-flight RPC (send failure or client shutdown).
func (sc *shardConn) unregister(id uint64) {
	sc.mu.Lock()
	delete(sc.inflight, id)
	sc.mu.Unlock()
}

// readLoop demultiplexes replies until the connection dies, then fails every
// RPC still in flight with the transport error. Each entry leaves the table
// exactly once — either claimed by its reply here or drained by fail — so
// no RPC is ever answered twice and none is left waiting forever.
func (sc *shardConn) readLoop() {
	for {
		msg, err := sc.conn.Recv()
		if err != nil {
			sc.fail(err)
			return
		}
		env, ok := msg.(*protocol.Envelope)
		if !ok {
			// This client only issues enveloped RPCs; stray unenveloped
			// traffic has no caller to route to.
			continue
		}
		sc.mu.Lock()
		ch, ok := sc.inflight[env.ReqID]
		delete(sc.inflight, env.ReqID)
		sc.mu.Unlock()
		if ok {
			ch <- rpcResult{msg: env.Msg}
		}
	}
}

// fail marks the connection dead and delivers err to every in-flight RPC.
func (sc *shardConn) fail(err error) {
	sc.mu.Lock()
	sc.err = err
	pending := make([]chan rpcResult, 0, len(sc.inflight))
	for id, ch := range sc.inflight {
		delete(sc.inflight, id)
		pending = append(pending, ch)
	}
	sc.mu.Unlock()
	for _, ch := range pending {
		ch <- rpcResult{err: err}
	}
}

// New builds a client. No connection is made until the first operation.
func New(cfg Config) (*Client, error) {
	if cfg.Transport == nil {
		return nil, errors.New("medclient: Transport is required")
	}
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("medclient: at least one seed address is required")
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 5
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 8 * time.Millisecond
	}
	cfg.Seeds = append([]string(nil), cfg.Seeds...)
	return &Client{
		cfg:   cfg,
		conns: make(map[string]*shardConn),
		stop:  make(chan struct{}),
	}, nil
}

// Close releases every pooled connection and aborts in-flight retries.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	open := make([]*shardConn, 0, len(c.conns))
	for _, sc := range c.conns {
		open = append(open, sc)
	}
	c.conns = make(map[string]*shardConn)
	c.mu.Unlock()
	close(c.stop)
	for _, sc := range open {
		_ = sc.conn.Close()
	}
	// Wait for every read loop so Close leaves no goroutine behind.
	c.wg.Wait()
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf("medclient: "+format, args...)
	}
}

// sleep waits d unless the client closes first.
func (c *Client) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.stop:
		return false
	}
}

// getConn returns the pooled connection for addr, dialing on first use.
func (c *Client) getConn(addr string) (*shardConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if sc, ok := c.conns[addr]; ok {
		c.mu.Unlock()
		return sc, nil
	}
	c.mu.Unlock()
	conn, err := c.cfg.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		_ = conn.Close()
		return nil, ErrClosed
	}
	if sc, ok := c.conns[addr]; ok {
		// A concurrent caller won the dial race; keep theirs.
		_ = conn.Close()
		return sc, nil
	}
	sc := &shardConn{conn: conn, inflight: make(map[uint64]chan rpcResult)}
	c.conns[addr] = sc
	// The read loop starts only for the connection that won the race. A
	// connection leaves the pool as soon as its read loop ends, so the first
	// operation after a shard restart redials instead of burning an attempt
	// on the dead one.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		sc.readLoop()
		c.dropConn(addr, sc)
	}()
	return sc, nil
}

// dropConn evicts a connection from the pool, if it is still the pooled one
// for addr, and closes it.
func (c *Client) dropConn(addr string, sc *shardConn) {
	c.mu.Lock()
	if cur, ok := c.conns[addr]; ok && cur == sc {
		delete(c.conns, addr)
	}
	c.mu.Unlock()
	_ = sc.conn.Close()
}

// Map returns the tier's topology: epoch 1 and the shard addresses it was
// given. Addresses are fixed for the tier's life, so Map makes no RPC.
//
//barter:allow deadcode bench/medslice.go's priming call; item 7(d) drops both
func (c *Client) Map() (uint64, []string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, ErrClosed
	}
	return 1, append([]string(nil), c.cfg.Seeds...), nil
}

// rpc issues one enveloped, pipelined request on sc and waits for its
// single reply. Many callers share the connection concurrently; a transport
// failure delivers the error to exactly the RPCs in flight on it.
func (c *Client) rpc(sc *shardConn, req protocol.Message) (protocol.Message, error) {
	id := c.nextReq.Add(1)
	ch := make(chan rpcResult, 1)
	if err := sc.register(id, ch); err != nil {
		return nil, err
	}
	perfstats.MedRPCStart()
	defer perfstats.MedRPCDone()
	if err := sc.conn.Send(&protocol.Envelope{ReqID: id, Msg: req}); err != nil {
		sc.unregister(id)
		return nil, err
	}
	select {
	case res := <-ch:
		return res.msg, res.err
	case <-c.stop:
		sc.unregister(id)
		return nil, ErrClosed
	}
}

// op runs one request-reply exchange against the shard owning obj, retrying
// with backoff and alternating primary/replica on failure. handle inspects
// each reply: it returns done once the terminal reply arrived, along with
// the operation's verdict. A no-key verdict from one owner is given one shot
// at the other — the copy the primary wrote through may have survived a
// primary restart.
func (c *Client) op(obj catalog.ObjectID, req protocol.Message, handle func(protocol.Message) (bool, error)) error {
	primary, replica := mediator.ShardFor(obj, len(c.cfg.Seeds))
	var lastErr error = ErrUnavailable
	skipBackoff := false
	forceIdx := -1
	var noKeyFrom [2]bool // primary, replica answered "no escrow"
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 && !skipBackoff {
			if !c.sleep(backoffFor(c.cfg.Backoff, attempt)) {
				return ErrClosed
			}
		}
		skipBackoff = false
		idx := primary
		if attempt%2 == 1 {
			idx = replica
		}
		if forceIdx >= 0 {
			idx, forceIdx = forceIdx, -1
		}
		addr := c.cfg.Seeds[idx]
		sc, err := c.getConn(addr)
		if err != nil {
			lastErr = err
			continue
		}
		// ReqIDs match replies unambiguously, so one that handle does not
		// claim is a protocol violation: drop the conn and retry.
		reply, opErr := c.rpc(sc, req)
		done := false
		if opErr == nil {
			if done, opErr = handle(reply); !done {
				opErr = fmt.Errorf("medclient: unexpected reply %T", reply)
			}
		}
		if !done {
			c.dropConn(addr, sc)
			lastErr = opErr
			c.logf("attempt %d for object %d via %s failed: %v", attempt, obj, addr, opErr)
			continue
		}
		if errors.Is(opErr, ErrNoKey) && replica != primary {
			// This shard holds no escrow — it may have restarted and lost
			// it. The tier keeps deposits on both owners, so consult the
			// other one before giving the verdict back.
			side := 0
			if idx == replica {
				side = 1
			}
			noKeyFrom[side] = true
			if !noKeyFrom[1-side] {
				forceIdx = primary + replica - idx
				skipBackoff = true
				lastErr = opErr
				continue
			}
		}
		return opErr
	}
	if errors.Is(lastErr, ErrClosed) {
		return lastErr
	}
	if errors.Is(lastErr, ErrNoKey) {
		// Both primary and replica answered: the escrow is genuinely gone.
		return lastErr
	}
	return fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
}

// maxBackoff caps the exponential schedule; past it every retry waits the
// same bounded interval (an unclamped shift would overflow time.Duration at
// high attempt counts and collapse the backoff to zero).
const maxBackoff = 2 * time.Second

func backoffFor(base time.Duration, attempt int) time.Duration {
	shift := attempt - 1
	if shift > 20 {
		shift = 20
	}
	d := base << shift
	if d <= 0 || d > maxBackoff {
		return maxBackoff
	}
	return d
}

// Deposit escrows a sender's key for one exchange with the owning shard, in
// one RPC. Nil means the primary holds, has logged and has queued for the
// replica shard its copy of the key — not that the replica has it yet: an
// audit that fails over inside that window gets ErrNoKey, the transient answer.
// ErrBadRequest means the shard refused the deposit: it does not own obj.
func (c *Client) Deposit(exchangeID uint64, sender core.PeerID, obj catalog.ObjectID, key [16]byte) error {
	req := &protocol.MedDeposit{ExchangeID: exchangeID, Sender: sender, Object: obj, Key: key}
	return c.op(obj, req, func(msg protocol.Message) (bool, error) {
		switch v := msg.(type) {
		case *protocol.MedKey:
			return v.ExchangeID == exchangeID && v.Key == key, nil
		case *protocol.MedReject:
			if v.ExchangeID == exchangeID {
				return true, fmt.Errorf("%w: %s", ErrBadRequest, v.Reason)
			}
		}
		return false, nil
	})
}

// Verify submits received sample blocks for audit and returns the sender's
// escrowed key on success. ErrRejected means the audit proved cheating;
// ErrNoKey means the shard held no escrow (transient); ErrUnavailable means
// no shard could be reached through every retry and failover.
func (c *Client) Verify(exchangeID uint64, requester, sender core.PeerID, obj catalog.ObjectID, samples []protocol.Block) ([16]byte, error) {
	key, _, err := c.Audit(exchangeID, requester, sender, obj, samples, nil, 0)
	return key, err
}

// Audit is Verify with receipts: besides the key it returns the registry's
// digest of every receipted block, in receipt order. blocks is the object's
// block count as the requester fixed it; ErrBadRequest means the registry
// counts another. A reply that carries another number of digests is a
// protocol violation, retried like any unclaimed reply.
func (c *Client) Audit(exchangeID uint64, requester, sender core.PeerID, obj catalog.ObjectID, samples []protocol.Block, receipts []protocol.Receipt, blocks int) ([16]byte, [][32]byte, error) {
	req := &protocol.MedVerify{
		ExchangeID: exchangeID,
		Requester:  requester,
		Sender:     sender,
		Object:     obj,
		Blocks:     uint32(blocks),
		Samples:    samples,
		Receipts:   receipts,
	}
	var key [16]byte
	var digests [][32]byte
	err := c.op(obj, req, func(msg protocol.Message) (bool, error) {
		switch v := msg.(type) {
		case *protocol.MedKey:
			if v.ExchangeID == exchangeID && len(v.Digests) == len(receipts) {
				key, digests = v.Key, v.Digests
				return true, nil
			}
		case *protocol.MedReject:
			if v.ExchangeID == exchangeID {
				switch v.Code {
				case protocol.MedRejectNoKey:
					return true, fmt.Errorf("%w: %s", ErrNoKey, v.Reason)
				case protocol.MedRejectAudit:
					return true, fmt.Errorf("%w: %s", ErrRejected, v.Reason)
				default:
					// Oversize, malformed, or a code this client does not
					// know: the mediator refused to judge — never a
					// cheating verdict against the sender.
					return true, fmt.Errorf("%w: %s", ErrBadRequest, v.Reason)
				}
			}
		}
		return false, nil
	})
	return key, digests, err
}
