// Package mediator implements the trusted-mediator defense of Section III-B
// against middleman cheating: both directions of an exchange are encrypted,
// each with a secret key known only to the sending peer and the mediator;
// every block carries an encrypted control header naming its origin and
// intended recipient; and when the transfer completes the mediator checks a
// receipt for every block — a copy of its sealed control header — before
// releasing the key, together with the registry's digest of each receipted
// block, to the peer named in the headers, so a middleman who peddled
// someone else's blocks gains nothing. The receiver decrypts and checks every
// block against those digests; a block that fails comes back as evidence, a
// full sealed sample whose content the mediator audits and on which it flags
// the sender.
//
// # Durability
//
// By default a shard's escrow and flagged-peer state live in memory and die
// with it: a restarted shard refuses unknown keys with a transient no-key
// code (never flagging anyone) and sessions re-escrow. With
// ShardOpts.DataDir set, the shard instead appends every accepted deposit
// and every flag to a per-shard write-ahead log (shard-<index>.wal, CRC-32
// framed, torn tails truncated on open) and replays it in NewShard, so a
// restart — of one shard or the whole tier — recovers both in-flight
// escrow and the full detection history. Writes are buffered through the
// OS without fsync: the log targets process restarts, not power loss.
//
// # The tier
//
// A tier is a fixed set of shards (Cluster in-process, `mediatord -shard i/N`
// over TCP) whose addresses are fixed at start: a restart re-binds its own.
// ShardFor places every object on a primary and a replica, and a shard
// refuses what it does not own with protocol.MedRejectBadRequest. Every
// request, a client's or a sibling shard's, arrives in a protocol.Envelope; a
// connection that sends a bare one is closed. ReqID 0 is the one-way form:
// applied in arrival order, never answered.
//
// The tier keeps its own second copy: the primary that applies a deposit, and
// either owner that reaches a verdict, logs the record, queues it for the
// object's other owner on one persistent one-way connection per sibling
// (replLink), and answers the client. A deposit acknowledgement so promises
// that the primary holds, has logged and has queued the key, not that the
// replica has it yet; an audit that fails over inside that window is refused
// with the transient no-key code, which flags nobody. The copy is best
// effort: a record a link cannot deliver is dropped and counted in the
// shard's own Counts, beside the records its log failed to append, and
// Cluster.Counts sums them over every shard instance the tier has run.
package mediator

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"os"
	"sync"
	"sync/atomic"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/protocol"
	"barter/internal/transport"
)

// ErrRejected is returned by client Verify calls when the audit fails.
var ErrRejected = errors.New("mediator: audit rejected the exchange")

// headerLen is the encrypted control header prefix of each sealed payload:
// origin (4) + recipient (4) + object (4) + index (4).
const headerLen = 16

// Audit request limits, enforced at the serve read path. The wire codec
// already bounds decoded frames, but the in-memory transport hands message
// pointers straight through — no codec runs — so the mediator itself must
// cap what one MedVerify may ask it to chew on, mirroring the PR 4
// count-amplification fix one layer up.
const (
	// MaxVerifySamples bounds the sample blocks one audit may submit.
	MaxVerifySamples = 64
	// MaxVerifyBytes bounds the total sealed payload across those samples.
	MaxVerifyBytes = 1 << 20
	// maxVerifyReceipts bounds the receipts one audit may carry, one per
	// block of a lane: 4,096 blocks is a 16 MiB lane at the swarm's 4 KiB
	// blocks, 64 times the largest lane the swarm builds by default (a
	// 256 KiB object in one lane).
	maxVerifyReceipts = 4096
	// maxInflight bounds the requests one connection has running at once.
	maxInflight = 64
)

// Seal encrypts one block payload with its control header using AES-CTR
// under key. The nonce is derived from (object, index) so blocks are
// independently decryptable. The result is a new buffer; payload is only
// read.
func Seal(key [16]byte, origin, recipient core.PeerID, obj catalog.ObjectID, index uint32, payload []byte) ([]byte, error) {
	buf := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(origin))
	binary.BigEndian.PutUint32(buf[4:8], uint32(recipient))
	binary.BigEndian.PutUint32(buf[8:12], uint32(obj))
	binary.BigEndian.PutUint32(buf[12:16], index)
	copy(buf[headerLen:], payload)
	if err := crypt(key, obj, index, buf, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Open decrypts a sealed block, returning the control header fields and the
// plaintext payload. sealed is left untouched and the plaintext is a fresh
// buffer; Crypt is the in-place form for a caller that owns the block.
//
//barter:allow deadcode bench/probes.go's mediator.open_us and examples/middleman; item 13
func Open(key [16]byte, obj catalog.ObjectID, index uint32, sealed []byte) (origin, recipient core.PeerID, payload []byte, err error) {
	if len(sealed) < headerLen {
		return 0, 0, nil, errShortBlock
	}
	plain := make([]byte, len(sealed))
	if err := crypt(key, obj, index, plain, sealed); err != nil {
		return 0, 0, nil, err
	}
	origin, recipient, err = openHeader(plain, obj, index)
	if err != nil {
		return 0, 0, nil, err
	}
	return origin, recipient, plain[headerLen:], nil
}

// The two ways a sealed block fails to open; Open and the mediator's audit
// report them in the same words.
var (
	errShortBlock     = errors.New("mediator: sealed block too short")
	errHeaderPosition = errors.New("mediator: control header does not match block position")
)

// openHeader reads a decrypted control header and checks that it names the
// position the block was presented at.
func openHeader(plain []byte, obj catalog.ObjectID, index uint32) (origin, recipient core.PeerID, err error) {
	origin = core.PeerID(binary.BigEndian.Uint32(plain[0:4]))
	recipient = core.PeerID(binary.BigEndian.Uint32(plain[4:8]))
	gotObj := catalog.ObjectID(binary.BigEndian.Uint32(plain[8:12]))
	gotIdx := binary.BigEndian.Uint32(plain[12:16])
	if gotObj != obj || gotIdx != index {
		return 0, 0, errHeaderPosition
	}
	return origin, recipient, nil
}

// Crypt applies the keystream of the block at (obj, index) under key to buf
// where it lies: a sealed block becomes its control header and payload, and
// an opened one is sealed again, since CTR is its own inverse. It allocates
// no buffer, so only the sole owner of buf may call it.
func Crypt(key [16]byte, obj catalog.ObjectID, index uint32, buf []byte) {
	block, _ := aes.NewCipher(key[:]) // only a key of another length fails
	blockStream(block, obj, index).XORKeyStream(buf, buf)
}

// crypt applies AES-CTR with a per-(object, index) nonce from src into dst,
// which may be the same slice; it is its own inverse.
func crypt(key [16]byte, obj catalog.ObjectID, index uint32, dst, src []byte) error {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return err
	}
	blockStream(block, obj, index).XORKeyStream(dst, src)
	return nil
}

// blockStream is the AES-CTR keystream of the block at (object, index).
func blockStream(block cipher.Block, obj catalog.ObjectID, index uint32) cipher.Stream {
	var iv [16]byte
	binary.BigEndian.PutUint32(iv[0:4], uint32(obj))
	binary.BigEndian.PutUint32(iv[4:8], index)
	return cipher.NewCTR(block, iv[:])
}

// DigestOracle supplies the mediator's trustworthy source of valid block
// checksums (Section III-B assumes one exists; a content registry plays the
// role here).
type DigestOracle func(catalog.ObjectID) ([][32]byte, bool)

// ShardOpts position a mediator as one member of a sharded tier.
type ShardOpts struct {
	// Index and Count place this mediator on the consistent-hash ring;
	// Count <= 1 means a standalone mediator that owns every object.
	Index, Count int
	// Map supplies the dialable address of every shard by index, which the
	// replication links dial. Required when Count > 1.
	Map func() []string
	// DataDir, when non-empty, enables the write-ahead log: deposits and
	// flags are appended to <DataDir>/shard-<Index>.wal and replayed on
	// the next NewShard at the same index, so a restart forgets nothing.
	DataDir string
}

// Mediator is the trusted audit-and-escrow service: one standalone process,
// or one shard of a Cluster. It listens on a transport and serves MedDeposit
// and MedVerify messages, refusing those for objects outside its partition.
type Mediator struct {
	oracle DigestOracle
	shard  ShardOpts
	tr     transport.Transport
	ln     transport.Listener

	mu       sync.Mutex
	deposits map[depositKey]escrow
	flagged  map[core.PeerID]int // peers caught cheating, with counts
	wal      *wal                // nil without a DataDir
	links    []*replLink         // by sibling index; nil at this shard's own

	// replicated and replDropped are Counts' link halves, bumped by the
	// links' senders and by replicate.
	replicated, replDropped atomic.Int64

	// connMu guards the open-connection set so Close can tear down every
	// serve goroutine: a blocked Recv on an idle client would otherwise keep
	// wg.Wait from ever returning.
	connMu  sync.Mutex
	conns   map[transport.Conn]struct{}
	closing bool

	wg   sync.WaitGroup
	stop chan struct{}
}

type depositKey struct {
	exchange uint64
	sender   core.PeerID
}

// escrow is one deposited key plus the object it unlocks.
type escrow struct {
	key    [16]byte
	object catalog.ObjectID
}

// NewShard starts a mediator listening on addr: one member of a sharded
// tier, or a standalone mediator under the zero ShardOpts.
func NewShard(tr transport.Transport, addr string, oracle DigestOracle, shard ShardOpts) (*Mediator, error) {
	if oracle == nil {
		return nil, errors.New("mediator: digest oracle is required")
	}
	if shard.Count > 1 {
		if shard.Index < 0 || shard.Index >= shard.Count {
			return nil, fmt.Errorf("mediator: shard index %d out of range [0, %d)", shard.Index, shard.Count)
		}
		if shard.Map == nil {
			return nil, errors.New("mediator: sharded tiers need the shards' addresses (Map)")
		}
	}
	m := &Mediator{
		oracle:   oracle,
		shard:    shard,
		tr:       tr,
		deposits: make(map[depositKey]escrow),
		flagged:  make(map[core.PeerID]int),
		conns:    make(map[transport.Conn]struct{}),
		stop:     make(chan struct{}),
	}
	if shard.DataDir != "" {
		if err := os.MkdirAll(shard.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("mediator: data dir: %w", err)
		}
		w, err := openWAL(walPath(shard.DataDir, shard.Index),
			func(d walDeposit) {
				m.deposits[depositKey{exchange: d.exchange, sender: d.sender}] = escrow{key: d.key, object: d.object}
			},
			func(p core.PeerID, n uint32) { m.flagged[p] += int(n) },
		)
		if err != nil {
			return nil, fmt.Errorf("mediator: write-ahead log: %w", err)
		}
		m.wal = w
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		m.wal.Close()
		return nil, err
	}
	m.ln = ln
	for i := 0; shard.Count > 1 && i < shard.Count; i++ {
		m.links = append(m.links, nil)
		if i != shard.Index {
			m.links[i] = &replLink{m: m, target: i, queue: make(chan protocol.Message, replQueue)}
			m.wg.Add(1)
			go m.links[i].run()
		}
	}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// owns reports whether this shard's partition covers obj, either as its
// primary or as the replica clients fail over to.
func (m *Mediator) owns(obj catalog.ObjectID) bool {
	if m.shard.Count <= 1 {
		return true
	}
	primary, replica := ShardFor(obj, m.shard.Count)
	return primary == m.shard.Index || replica == m.shard.Index
}

// Addr returns the mediator's dialable address.
func (m *Mediator) Addr() string { return m.ln.Addr() }

// Close stops the mediator: it stops accepting, closes every open client
// connection (unblocking their serve goroutines), and waits for them.
func (m *Mediator) Close() {
	select {
	case <-m.stop:
		return
	default:
	}
	close(m.stop)
	_ = m.ln.Close()
	m.connMu.Lock()
	m.closing = true
	open := make([]transport.Conn, 0, len(m.conns))
	for c := range m.conns {
		open = append(open, c)
	}
	m.connMu.Unlock()
	for _, c := range open {
		_ = c.Close()
	}
	m.wg.Wait()
	m.wal.Close()
}

// track registers an open connection; it refuses once Close has begun so a
// connection accepted during teardown cannot outlive wg.Wait.
func (m *Mediator) track(c transport.Conn) bool {
	m.connMu.Lock()
	defer m.connMu.Unlock()
	if m.closing {
		return false
	}
	m.conns[c] = struct{}{}
	return true
}

func (m *Mediator) untrack(c transport.Conn) {
	m.connMu.Lock()
	delete(m.conns, c)
	m.connMu.Unlock()
}

// Flagged returns how many times a peer failed an audit.
func (m *Mediator) Flagged(p core.PeerID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flagged[p]
}

// FlaggedAll snapshots every flagged peer and its count.
//
//barter:allow deadcode bench/liveslice.go reads honest_flagged shard by shard; item 7(d)
func (m *Mediator) FlaggedAll() map[core.PeerID]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[core.PeerID]int, len(m.flagged))
	for p, n := range m.flagged {
		out[p] = n
	}
	return out
}

// Counts are what keeping the tier's second copies cost a shard: the
// records (deposits, flags) its replication links sent to an object's other
// owner, those they dropped (queue full, sibling unreachable, or a send
// error), and those its write-ahead log failed to append, which a restart of
// the shard will not recover.
type Counts struct {
	Replicated, ReplDropped, WALLost int
}

func (c *Counts) add(o Counts) {
	c.Replicated += o.Replicated
	c.ReplDropped += o.ReplDropped
	c.WALLost += o.WALLost
}

// Counts returns the shard's counts since it started.
func (m *Mediator) Counts() Counts {
	m.mu.Lock()
	lost := 0
	if m.wal != nil {
		lost = m.wal.dropped
	}
	m.mu.Unlock()
	return Counts{Replicated: int(m.replicated.Load()), ReplDropped: int(m.replDropped.Load()), WALLost: lost}
}

func (m *Mediator) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		if !m.track(conn) {
			_ = conn.Close()
			return
		}
		m.wg.Add(1)
		go m.serve(conn)
	}
}

func (m *Mediator) serve(conn transport.Conn) {
	defer m.wg.Done()
	defer m.untrack(conn)
	defer conn.Close() //barter:allow unchecked-io teardown: the peer sees the drop; nothing durable rides on this close
	// reqs tracks the per-request goroutines; serve waits for them before
	// returning so Close's wg.Wait still covers every in-flight audit.
	// inflight caps them: past it the read loop waits — backpressure.
	var reqs sync.WaitGroup
	defer reqs.Wait()
	inflight := make(chan struct{}, maxInflight)
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		env, ok := msg.(*protocol.Envelope)
		if !ok {
			return // a bare request: not this tier's wire, drop the connection
		}
		if env.ReqID == 0 {
			// One-way, a sibling's write-through: applied here, in arrival
			// order, with no goroutine, no reply and no forwarding on.
			if m.handleRPC(func(protocol.Message) error { return nil }, env) {
				return
			}
			continue
		}
		// Serve every other request concurrently and echo its id on every
		// reply so the client's read loop can demultiplex. Conn.Send is safe
		// for concurrent use by contract.
		send := func(reply protocol.Message) error {
			return conn.Send(&protocol.Envelope{ReqID: env.ReqID, Msg: reply})
		}
		inflight <- struct{}{}
		reqs.Add(1)
		go func() {
			defer reqs.Done()
			defer func() { <-inflight }()
			if m.handleRPC(send, env) {
				// A limit-violating request forfeits the connection; closing
				// unblocks the Recv loop, which then waits out the sibling
				// requests.
				_ = conn.Close()
			}
		}()
	}
}

// handleRPC serves one mediator request, routing any replies through send
// (which wraps them in the request's envelope). It returns true when the
// connection should be dropped — a client that violates the audit limits
// forfeits the connection.
func (m *Mediator) handleRPC(send func(protocol.Message) error, env *protocol.Envelope) bool {
	switch req := env.Msg.(type) {
	case *protocol.MedDeposit:
		if !m.owns(req.Object) {
			m.misrouted(send, req.ExchangeID)
			return false
		}
		m.mu.Lock()
		m.deposits[depositKey{exchange: req.ExchangeID, sender: req.Sender}] = escrow{key: req.Key, object: req.Object}
		if m.wal != nil {
			m.wal.appendDeposit(walDeposit{exchange: req.ExchangeID, sender: req.Sender, object: req.Object, key: req.Key})
		}
		m.mu.Unlock()
		// A client's deposit at the primary writes through; the copy that
		// arrives (one-way) at the replica stops there.
		if primary, _ := ShardFor(req.Object, m.shard.Count); env.ReqID != 0 && primary == m.shard.Index {
			m.replicate(req.Object, req)
		}
		// Echo as the deposit acknowledgement so clients can treat
		// escrow as synchronous.
		_ = send(&protocol.MedKey{ExchangeID: req.ExchangeID, Key: req.Key})
	case *protocol.MedFlag:
		// A verdict written through by the object's other owner. It goes
		// to the WAL like a native one, is never answered, and never
		// replicates on — that would bounce between the two owners forever.
		m.flag(req.Peer)
	case *protocol.MedVerify:
		if !m.owns(req.Object) {
			m.misrouted(send, req.ExchangeID)
			return false
		}
		if oversizedVerify(req) {
			// A well-behaved client never exceeds the audit limits;
			// reject without a verdict and drop the connection.
			_ = send(&protocol.MedReject{
				ExchangeID: req.ExchangeID,
				Code:       protocol.MedRejectOversize,
				Reason:     "audit request exceeds mediator limits",
			})
			return true
		}
		m.handleVerify(send, req)
	default:
		// Ignore unrelated traffic.
	}
	return false
}

// misrouted refuses a request for an object this shard does not own. A
// client routes by the same ShardFor over the same fixed address list, so
// only a misconfigured one lands here: nothing is stored and nobody flagged.
func (m *Mediator) misrouted(send func(protocol.Message) error, exchange uint64) {
	_ = send(&protocol.MedReject{ExchangeID: exchange, Code: protocol.MedRejectBadRequest, Reason: "object not owned by this shard"})
}

// handleVerify audits what the requester received from Sender. Every sample
// and every receipt must open under the sender's escrowed key to a control
// header that names the sender as origin, the requester as recipient and
// the block's own position, and a sample's payload digest must also match
// the oracle. Only then is the key released, with the oracle's digest of
// every receipted block — and it is sent to the connection that proved
// receipt, which by the header check is the intended recipient.
func (m *Mediator) handleVerify(send func(protocol.Message) error, req *protocol.MedVerify) {
	// reject is the audit verdict: the samples, decrypted under the key
	// the claimed sender itself escrowed, contradict the claim — the
	// paper's evidence standard for flagging (deposits and audits are
	// assumed to travel over the peers' secure channels to the mediator).
	reject := func(reason string) {
		m.flag(req.Sender)
		// The verdict writes through to the object's other owner, so losing
		// this shard loses no history; a double count is harmless, consumers
		// only ask whether a peer was flagged at all.
		m.replicate(req.Object, &protocol.MedFlag{Peer: req.Sender})
		_ = send(&protocol.MedReject{ExchangeID: req.ExchangeID, Code: protocol.MedRejectAudit, Reason: reason})
	}
	// refuse is for faults attributable to the requester or to this
	// shard's own configuration: no verdict is reached and nobody is
	// flagged — a malformed audit must never brand an honest sender.
	refuse := func(code uint8, reason string) {
		_ = send(&protocol.MedReject{ExchangeID: req.ExchangeID, Code: code, Reason: reason})
	}
	m.mu.Lock()
	dep, ok := m.deposits[depositKey{exchange: req.ExchangeID, sender: req.Sender}]
	m.mu.Unlock()
	if !ok {
		// Not proof of cheating: the deposit may simply not have arrived
		// yet, or this shard restarted and lost its escrow. Refuse without
		// flagging so a transient gap never brands an honest sender.
		refuse(protocol.MedRejectNoKey, "no escrowed key for claimed sender")
		return
	}
	digests, ok := m.oracle(req.Object)
	if !ok {
		refuse(protocol.MedRejectBadRequest, "object unknown to digest oracle")
		return
	}
	if len(req.Samples) == 0 && len(req.Receipts) == 0 {
		refuse(protocol.MedRejectBadRequest, "no samples or receipts supplied")
		return
	}
	a, err := newAuditor(dep.key)
	if err != nil {
		refuse(protocol.MedRejectBadRequest, err.Error())
		return
	}
	for i := range req.Samples {
		sample := &req.Samples[i]
		if sample.Object != req.Object {
			refuse(protocol.MedRejectBadRequest, "sample from a different object")
			return
		}
		if reason := a.auditSample(sample, req.Sender, req.Requester, digests); reason != "" {
			reject(reason)
			return
		}
	}
	released := make([][32]byte, len(req.Receipts))
	for i := range req.Receipts {
		rc := &req.Receipts[i]
		if reason := a.auditReceipt(rc, req.Object, req.Sender, req.Requester); reason != "" {
			reject(reason)
			return
		}
		if int(rc.Index) >= len(digests) {
			// The sender sealed a block at a position the object does not
			// have: its manifest lied about the block count.
			reject(fmt.Sprintf("receipt %d beyond the object's %d blocks", rc.Index, len(digests)))
			return
		}
		released[i] = digests[rc.Index]
	}
	if len(req.Receipts) > 0 && int(req.Blocks) != len(digests) {
		// The requester fixed another block count from a manifest that
		// named it: the registry's digests of the receipted blocks alone
		// would pass a truncated object. The manifest is unsigned, so the
		// count is no evidence against the sender.
		refuse(protocol.MedRejectBadRequest, fmt.Sprintf("requester counts %d blocks, the registry %d", req.Blocks, len(digests)))
		return
	}
	_ = send(&protocol.MedKey{ExchangeID: req.ExchangeID, Key: dep.key, Digests: released})
}

// auditor is what the samples and receipts of one audit request share: the
// sender's escrowed key expanded once, one SHA-256 state, and the scratch a
// sample is decrypted through on its way into the hash.
type auditor struct {
	block   cipher.Block
	digest  hash.Hash
	scratch [4096]byte
}

func newAuditor(key [16]byte) (*auditor, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return &auditor{block: block, digest: sha256.New()}, nil
}

// auditSample reaches the verdict Open followed by a SHA-256 of the payload
// would, without materialising the plaintext: the control header is decrypted
// and checked first, then the payload streams through the scratch into the
// hash. It returns the reason the sample convicts sender, or "" when the
// sample holds up. The sample is only read — over the in-memory transport it
// is the very slice the requester still holds sealed.
func (a *auditor) auditSample(sample *protocol.Block, sender, requester core.PeerID, digests [][32]byte) string {
	sealed := sample.Payload
	if len(sealed) < headerLen {
		return fmt.Sprintf("sample %d: %v", sample.Index, errShortBlock)
	}
	stream := blockStream(a.block, sample.Object, sample.Index)
	header := a.scratch[:headerLen]
	stream.XORKeyStream(header, sealed[:headerLen])
	if reason := headerVerdict("sample", header, sample.Object, sample.Index, sender, requester); reason != "" {
		return reason
	}
	if int(sample.Index) < len(digests) {
		a.digest.Reset()
		for rest := sealed[headerLen:]; len(rest) > 0; {
			n := min(len(rest), len(a.scratch))
			stream.XORKeyStream(a.scratch[:n], rest[:n])
			a.digest.Write(a.scratch[:n]) //barter:allow unchecked-io hash.Hash documents that Write never returns an error
			rest = rest[n:]
		}
		if [32]byte(a.digest.Sum(a.scratch[:0])) == digests[sample.Index] {
			return ""
		}
	}
	return fmt.Sprintf("sample %d fails content audit", sample.Index)
}

// auditReceipt judges one receipt as auditSample judges a sample's header,
// returning the reason the receipt convicts sender, or "".
func (a *auditor) auditReceipt(rc *protocol.Receipt, obj catalog.ObjectID, sender, requester core.PeerID) string {
	var header [headerLen]byte
	blockStream(a.block, obj, rc.Index).XORKeyStream(header[:], rc.Header[:])
	return headerVerdict("receipt", header[:], obj, rc.Index, sender, requester)
}

// headerVerdict checks a decrypted control header against the claim: the
// position it was presented at, the claimed sender as origin and the
// requester as recipient. It returns the reason it convicts sender, or "".
func headerVerdict(what string, header []byte, obj catalog.ObjectID, index uint32, sender, requester core.PeerID) string {
	origin, recipient, err := openHeader(header, obj, index)
	if err != nil {
		return fmt.Sprintf("%s %d: %v", what, index, err)
	}
	if origin != sender {
		// The claimed sender did not author these blocks: the classic
		// middleman peddling someone else's transfer.
		return fmt.Sprintf("%s %d authored by %d, not %d", what, index, origin, sender)
	}
	if recipient != requester {
		return fmt.Sprintf("%s %d addressed to %d, not %d", what, index, recipient, requester)
	}
	return ""
}

// flag records one verdict against p, in memory and in the log.
func (m *Mediator) flag(p core.PeerID) {
	m.mu.Lock()
	m.flagged[p]++
	if m.wal != nil {
		m.wal.appendFlag(p, 1)
	}
	m.mu.Unlock()
}

// oversizedVerify applies the audit limits at the read path, before any
// per-sample work.
func oversizedVerify(req *protocol.MedVerify) bool {
	if len(req.Samples) > MaxVerifySamples || len(req.Receipts) > maxVerifyReceipts {
		return true
	}
	total := 0
	for i := range req.Samples {
		total += len(req.Samples[i].Payload)
		if total > MaxVerifyBytes {
			return true
		}
	}
	return false
}
