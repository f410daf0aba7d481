// Package node implements the live, concurrent peer: the exchange protocol
// of Section III over a real transport. Each node runs a single-threaded
// event loop (an actor) fed by one reader goroutine per connection, so all
// protocol state is race-free by construction while transfers proceed
// concurrently across the network.
//
// The receiver acknowledges every block. An exchange session is synchronous
// block-for-block, as Section III-B prescribes: the sender releases the next
// block only once the last one is acknowledged, so a cheating partner gains
// at most one block. A plain session has no partner to reciprocate and keeps
// up to sendWindow blocks unacknowledged instead, unless Config.BlockDelay
// paces the node (handlers.go, window). Every download runs through one lane
// scheduler (lanes.go): it is cut into k = min(Config.Stripe, providers,
// blocks) lanes, lane i of k being the block indices congruent to i modulo
// k, and each lane is granted to one origin's upload session. A download
// asks one provider per lane and keeps the others standing by, as Section
// III's peer "actually issues requests to only a subset" of them. The only
// thing a mediator changes is how a lane is verified: without one each block
// is checked against its SHA-256 digest (the manifest's, or a trusted digest
// oracle's) as it arrives; with one blocks travel sealed under an escrowed
// key and the full lane is audited by the mediator tier, unsealed, and then
// digest-checked (mediated.go).
// Exchange rings are negotiated with a probe/accept/commit token and
// dissolve on the first RingQuit.
package node

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/protocol"
	"barter/internal/transport"
)

// ErrNoSource is surfaced to Download waiters when a download's provider set
// empties: each one refused, could not be dialed, sent a manifest refused
// for cause, or was caught cheating. A download given no provider at all
// fails at once.
var ErrNoSource = errors.New("node: no provider could serve the object")

// ErrNodeClosed is surfaced to Download waiters whose node shut down before
// the transfer completed (a churned peer, or an orderly exit mid-download).
var ErrNodeClosed = errors.New("node: closed")

// Config configures a live peer.
type Config struct {
	// ID is the peer's identity. Addr is the listen address (transport
	// specific; empty auto-assigns on the in-memory transport, ":0" on
	// TCP).
	ID   core.PeerID
	Addr string
	// Transport carries the protocol; required.
	Transport transport.Transport
	// Lookup resolves a peer id to a dialable address. Required for
	// exchange rings (the initiator must contact members it has no
	// connection to). The paper treats lookup as an external service and
	// so do we.
	Lookup func(core.PeerID) (string, bool)
	// Policy is the exchange search policy (default 2-5-way).
	Policy core.Policy
	// Share marks the peer as a contributor; a free-rider (Share false)
	// never serves anyone.
	Share bool
	// UploadSlots bounds concurrent uploads (default 4).
	UploadSlots int
	// BlockSize is the transfer block size in bytes (default 64 KiB).
	BlockSize int
	// TickInterval paces the maintenance timer (default 20ms).
	TickInterval time.Duration
	// StallTicks is how many ticks a lane waits for its next block before
	// it is taken back from its origin, or, unclaimed, re-issues the
	// download's requests (default 25). No timer discards a verified lane,
	// and none fails a download: a request that waits in a live provider's
	// queue is waiting its turn.
	StallTicks int
	// BlockDelay paces uploads: the gap between acknowledging one block
	// and sending the next. It models the paper's fixed-rate transfer slots
	// in wall-clock time, so a paced upload keeps one block in flight. Zero
	// sends immediately, up to the send window.
	BlockDelay time.Duration
	// TrustedDigests, when set, overrides manifest digests as the block
	// validation source ("a trustworthy source of information for the
	// actual valid checksums", Section III-B).
	TrustedDigests func(catalog.ObjectID) ([][32]byte, bool)
	// Mediator, when set, runs Section III-B's mediated exchange natively
	// on the block path: uploads are sealed under a per-exchange key the
	// sender escrows with the mediator tier (through the shard-aware
	// client), and a receiver completes a transfer by sending the tier a
	// receipt per block, obtaining the key and the registry's digests,
	// decrypting and checking every block — so a cheater is flagged by the
	// tier, on a bad header or on a bad block sent back as evidence, not
	// just locally blacklisted. The client is shared infrastructure owned
	// by the caller; Close it after the node.
	Mediator *medclient.Client
	// Stripe caps how many origins a download is striped across (receiver
	// side), with or without a Mediator. Each origin is granted one lane —
	// an interleaved residue class of block indices — and verified
	// independently, so a slow, departed, or cheating origin costs only its
	// own lane. A download asks one provider per lane and the rest stand by
	// until one of the asked leaves or a lane stalls. The default of 1 is a
	// single-origin transfer: one lane, carried by the one provider asked.
	Stripe int
	// Corrupt makes this node a cheater that serves junk payloads. The
	// swarm's corrupt class and tests use it to exercise the defenses.
	Corrupt bool
	// Logf, when set, receives debug lines.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() error {
	if c.Transport == nil {
		return errors.New("node: Transport is required")
	}
	if c.Policy == (core.Policy{}) {
		c.Policy = core.Policy2N
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.UploadSlots <= 0 {
		c.UploadSlots = 4
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 64 << 10
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 20 * time.Millisecond
	}
	if c.StallTicks <= 0 {
		c.StallTicks = 25
	}
	if c.Stripe <= 0 {
		c.Stripe = 1
	}
	if c.Lookup == nil {
		c.Lookup = func(core.PeerID) (string, bool) { return "", false }
	}
	return nil
}

// Stats is a snapshot of a node's counters.
type Stats struct {
	BlocksSent     int
	BlocksReceived int
	// BlocksRejected counts blocks that failed verification in their live
	// lane; BlocksStale counts blocks nacked because their download has
	// ended or their session no longer fills a lane (the window of a
	// dropped or reassigned session).
	BlocksRejected     int
	BlocksStale        int
	ExchangeBlocksSent int
	RingsJoined        int
	RingsInitiated     int
	RingsDissolved     int
	Preemptions        int
	ObjectsCompleted   int
	RequestsServed     int
	SendOverflows      int
	// MedVerifies counts audits this node submitted to the mediator tier;
	// MedRejects counts those that came back as cheating verdicts.
	MedVerifies int
	MedRejects  int
	// StripesGranted counts lane assignments this node handed to download
	// origins (one per single-origin download, more when striped or after a
	// recovery); StripesReassigned counts lanes taken back from a stalled,
	// departed, preempted, or cheating origin.
	StripesGranted    int
	StripesReassigned int
}

// Node is a live peer. Create with New, stop with Close.
type Node struct {
	cfg Config
	ln  transport.Listener

	events chan func()
	stop   chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup

	// postMu seals the events channel during Close: enqueues hold the read
	// side, Close takes the write side after the loop exits, so every event
	// that post accepted is either run by the loop or by Close's drain —
	// never silently dropped with a waiter attached.
	postMu  sync.RWMutex
	stopped bool

	// connMu guards the tracked-connection set. Every connection — inbound
	// ones the moment they are accepted (before any Hello identifies the
	// peer) and outbound ones the moment they are dialed — is registered
	// here so Close can unblock every reader and writer. Tracking through
	// the event loop instead would leave a window where an accepted
	// connection's reader blocks in Recv with nobody able to close it.
	connMu  sync.Mutex
	tracked map[transport.Conn]struct{}
	closing bool

	// Everything below is owned by the event loop. store holds each object
	// as its blocks, in the very slices they arrived in (or AddObject was
	// handed): a stored block is immutable and may be shared — with the
	// caller, with blocks in flight, and over the in-memory transport with
	// every node that downloaded it. Nothing here ever writes into one.
	store     map[catalog.ObjectID][][]byte
	digests   map[catalog.ObjectID][][32]byte
	downloads map[catalog.ObjectID]*download
	irq       []*irqEntry
	uploads   map[upKey]*upload
	conns     map[core.PeerID]*peerConn
	rings     map[uint64]*ringInfo
	ringSeq   uint64
	upSeq     uint64
	stats     Stats
}

type upKey struct {
	to     core.PeerID
	object catalog.ObjectID
}

type irqEntry struct {
	peer   core.PeerID
	object catalog.ObjectID
	tree   *core.Tree
}

type download struct {
	object    catalog.ObjectID
	blocks    [][]byte
	digests   [][32]byte
	have      int
	total     int
	providers map[core.PeerID]string
	// order is the provider set in the order it is asked (askOrder), the
	// providers named by a later Download call after the rest. The first
	// asked of them have been sent the request; the others stand by.
	order []core.PeerID
	asked int
	// unanswered counts the ticks spent before the first valid manifest.
	unanswered int
	waiters    []chan error
	// lanes is the download's interleave: lane i of k covers the block
	// indices congruent to i modulo k and sticks to one origin and that
	// origin's current session. nil until the first valid manifest fixes
	// the geometry, which then holds for the download's life.
	lanes []*lane
}

type upload struct {
	to     core.PeerID
	object catalog.ObjectID
	ringID uint64
	// seq orders uploads by start: ring commits preempt the youngest.
	seq   uint64
	total uint32
	// next is the oldest unacknowledged block index, sent the next one to
	// send; inFlight counts the blocks between them (at most window).
	next     uint32
	sent     uint32
	inFlight int
	// Every session tags its traffic with a fresh session id. The first
	// block waits for the receiver's StripeGrant (granted), which places
	// the session in the receiver's interleave — next and sent start at the
	// granted lane and advance by stride. With a mediator it also waits, in
	// either order, for the deposit of sealKey (escrowed), under which every
	// block is sealed; without one escrowed is true from the start.
	session  uint64
	stride   uint32
	granted  bool
	sealKey  [16]byte
	escrowed bool
}

type ringInfo struct {
	id        uint64
	members   []protocol.RingMember
	myIdx     int
	initiator bool
	accepts   map[core.PeerID]bool
	committed bool
	age       int
}

type peerConn struct {
	n       *Node
	id      core.PeerID
	conn    transport.Conn
	sendQ   chan protocol.Message
	sharing bool
}

// New starts a node: it listens, spawns the acceptor and the event loop.
func New(cfg Config) (*Node, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ln, err := cfg.Transport.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("node %d: listen: %w", cfg.ID, err)
	}
	n := &Node{
		cfg:       cfg,
		ln:        ln,
		events:    make(chan func(), 256),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		tracked:   make(map[transport.Conn]struct{}),
		store:     make(map[catalog.ObjectID][][]byte),
		digests:   make(map[catalog.ObjectID][][32]byte),
		downloads: make(map[catalog.ObjectID]*download),
		uploads:   make(map[upKey]*upload),
		conns:     make(map[core.PeerID]*peerConn),
		rings:     make(map[uint64]*ringInfo),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	go n.loop()
	return n, nil
}

// Addr returns the dialable listen address.
func (n *Node) Addr() string { return n.ln.Addr() }

// ID returns the peer id.
//
//barter:allow deadcode bench/liveslice.go names peers by it; item 7
func (n *Node) ID() core.PeerID { return n.cfg.ID }

// Close stops the node and waits for its goroutines: it stops accepting,
// closes every tracked connection (unblocking readers and writers), lets the
// event loop fail pending download waiters, and joins everything.
func (n *Node) Close() {
	select {
	case <-n.stop:
		return
	default:
	}
	close(n.stop)
	_ = n.ln.Close()
	n.connMu.Lock()
	n.closing = true
	open := make([]transport.Conn, 0, len(n.tracked))
	for c := range n.tracked {
		open = append(open, c)
	}
	n.connMu.Unlock()
	for _, c := range open {
		_ = c.Close()
	}
	<-n.done
	// The loop has exited; seal the queue so no further post can enqueue,
	// then run whatever it accepted before the seal (a racing Download may
	// have registered a waiter), and fail every pending download. State is
	// exclusively ours now: the loop is gone and readers only post.
	n.postMu.Lock()
	n.stopped = true
	n.postMu.Unlock()
	for {
		select {
		case fn := <-n.events:
			fn()
			continue
		default:
		}
		break
	}
	for _, dl := range n.downloads {
		for _, ch := range dl.waiters {
			ch <- fmt.Errorf("%w: object %d incomplete", ErrNodeClosed, dl.object)
		}
		dl.waiters = nil
	}
	n.wg.Wait()
}

// track registers a connection for teardown; it refuses once Close has
// begun, so no connection can slip past the close sweep.
func (n *Node) track(c transport.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.closing {
		return false
	}
	n.tracked[c] = struct{}{}
	return true
}

func (n *Node) untrack(c transport.Conn) {
	n.connMu.Lock()
	delete(n.tracked, c)
	n.connMu.Unlock()
}

// post schedules fn on the event loop and reports whether it was enqueued;
// once Close has sealed the queue it drops the event and returns false.
// Accepted events are guaranteed to run: by the loop normally, or by Close's
// drain during teardown.
func (n *Node) post(fn func()) bool {
	n.postMu.RLock()
	defer n.postMu.RUnlock()
	if n.stopped {
		return false
	}
	// With stop closed this select cannot block even on a full queue, so
	// holding the read lock here never stalls Close's write lock.
	select {
	case n.events <- fn:
		return true
	case <-n.stop:
		return false
	}
}

// call runs fn on the loop and waits for it (for synchronous accessors).
func (n *Node) call(fn func()) bool {
	doneCh := make(chan struct{})
	n.post(func() {
		fn()
		close(doneCh)
	})
	select {
	case <-doneCh:
		return true
	case <-n.stop:
		return false
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf("peer %d: "+format, append([]any{n.cfg.ID}, args...)...)
	}
}

// AddObject stores a fully available object (with its block digests). The
// node retains data without copying it and serves blocks straight out of it,
// so the caller must treat the bytes as immutable from here on. Handing one
// slice to any number of nodes is fine: they share it.
func (n *Node) AddObject(obj catalog.ObjectID, data []byte) {
	blocks := splitBlocks(data, n.cfg.BlockSize)
	digs := make([][32]byte, len(blocks))
	for i, b := range blocks {
		digs[i] = sha256.Sum256(b)
	}
	n.call(func() {
		n.store[obj] = blocks
		n.digests[obj] = digs
	})
}

// Object returns a completed object's bytes, or nil. The result is a private
// copy assembled from the stored blocks — the one place an object is copied —
// so the caller may do anything with it.
//
//barter:allow deadcode bench/liveslice.go checks every download's bytes with it; item 7
func (n *Node) Object(obj catalog.ObjectID) []byte {
	var blocks [][]byte
	if !n.call(func() { blocks = n.store[obj] }) || len(blocks) == 0 {
		return nil
	}
	// Stored blocks are immutable, so the copy needs no turn on the loop.
	out := make([]byte, 0, objectSize(blocks))
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	var s Stats
	n.call(func() { s = n.stats })
	return s
}

// Download requests an object from the given providers (peer id -> address)
// and returns a channel that receives nil on completion or an error. The
// download proceeds in the background; exchanges may accelerate it.
func (n *Node) Download(obj catalog.ObjectID, providers map[core.PeerID]string) <-chan error {
	ch := make(chan error, 1)
	if !n.post(func() { n.startDownload(obj, providers, ch) }) {
		ch <- ErrNodeClosed
	}
	return ch
}

// WaitFor blocks until the download channel yields or the timeout expires.
// The timer is stopped on the fast path: time.After would leak one running
// timer per call until it fires, which at swarm scale is thousands of stale
// timers.
//
//barter:allow deadcode bench/liveslice.go waits on downloads with it; item 7
func WaitFor(ch <-chan error, timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-ch:
		return err
	case <-t.C:
		return errors.New("node: download timed out")
	}
}

// objectSize is the byte length of an object held as blocks.
func objectSize(blocks [][]byte) int {
	size := 0
	for _, b := range blocks {
		size += len(b)
	}
	return size
}

// splitBlocks cuts data into size-byte blocks that alias it (no copy).
func splitBlocks(data []byte, size int) [][]byte {
	if len(data) == 0 {
		return nil
	}
	blocks := make([][]byte, 0, (len(data)+size-1)/size)
	for off := 0; off < len(data); off += size {
		end := off + size
		if end > len(data) {
			end = len(data)
		}
		blocks = append(blocks, data[off:end])
	}
	return blocks
}

// --- goroutines -------------------------------------------------------------

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		if !n.track(conn) {
			_ = conn.Close()
			return
		}
		n.wg.Add(1)
		go n.serveConn(conn, 0, false)
	}
}

// serveConn pumps one connection into the event loop: an outbound one to a
// known peer, or an inbound one whose peer is unknown until its Hello.
func (n *Node) serveConn(conn transport.Conn, peer core.PeerID, known bool) {
	defer n.wg.Done()
	defer n.untrack(conn)
	defer conn.Close() //nolint:errcheck // teardown
	for {
		msg, err := conn.Recv()
		if err != nil {
			if known {
				p := peer
				n.post(func() { n.dropConnIf(p, conn) })
			}
			return
		}
		if hello, ok := msg.(*protocol.Hello); ok {
			peer, known = hello.Peer, true
			h := *hello
			n.post(func() { n.registerConn(h, conn) })
			continue
		}
		if !known {
			return // protocol violation: first message must be Hello
		}
		p, m := peer, msg
		n.post(func() { n.handle(p, m) })
	}
}

// writeBatch caps the frames one write carries, so WriteTimeout still
// bounds a write of bounded size.
const writeBatch = 16

// writeLoop drains a connection's send queue: each wake-up sends the message
// that woke it and whatever is already queued behind it, up to writeBatch, in
// one write. A failed write closes the connection, so its reader fails and
// the loop drops the peer's uploads at once instead of leaving them on a
// connection nothing drains.
func (n *Node) writeLoop(pc *peerConn) {
	defer n.wg.Done()
	batch := make([]protocol.Message, 0, writeBatch)
	for {
		select {
		case msg := <-pc.sendQ:
			batch = append(batch[:0], msg)
		case <-n.stop:
			return
		}
		for len(batch) < writeBatch && len(pc.sendQ) > 0 {
			batch = append(batch, <-pc.sendQ) // sole receiver: cannot block
		}
		err := transport.SendAll(pc.conn, batch)
		clear(batch) // no payload outlives its write
		if err != nil {
			_ = pc.conn.Close()
			return
		}
	}
}

func (n *Node) loop() {
	defer close(n.done)
	ticker := time.NewTicker(n.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case fn := <-n.events:
			fn()
		case <-ticker.C:
			n.onTick()
		case <-n.stop:
			// Close finishes the teardown: it drains remaining events and
			// fails pending download waiters once the queue is sealed.
			return
		}
	}
}
