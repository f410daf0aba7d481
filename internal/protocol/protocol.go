// Package protocol defines the wire format of the live peer implementation:
// length-prefixed binary frames carrying the request, exchange-ring, block
// transfer, and mediator messages of Section III.
//
// Frame layout: 4-byte big-endian payload length, 1-byte message type, then
// the payload. All integers are big-endian. Strings and byte slices are
// 2-byte/4-byte length-prefixed respectively.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"barter/internal/catalog"
	"barter/internal/core"
)

// MaxFrame bounds a frame's payload; larger frames are rejected as corrupt.
const MaxFrame = 16 << 20

// Type identifies a message on the wire.
type Type uint8

// Wire message types.
const (
	TypeHello Type = iota + 1
	TypeRequest
	TypeCancel
	TypeRingProbe
	TypeRingAccept
	TypeRingCommit
	TypeRingAbort
	TypeRingQuit
	TypeManifest
	TypeBlock
	TypeBlockAck
	TypeMedDeposit
	TypeMedVerify
	TypeMedKey
	TypeMedReject
	// 16–18 were the shard-map request, the shard map and the redirect,
	// retired when shard addresses became fixed. The numbers stay reserved,
	// so every later type keeps its value.
	_
	_
	_
	TypeMedFlag
	// 20 was the flag acknowledgement, retired when the tier stopped
	// answering flags; it stays reserved like 16–18.
	_
	TypeEnvelope
	TypeStripeGrant
)

// Message is one decodable wire message.
type Message interface {
	// Type returns the wire type tag.
	Type() Type
	encode(w *writer)
	decode(r *reader) error
}

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("protocol: frame exceeds maximum size")
	ErrUnknownType   = errors.New("protocol: unknown message type")
	ErrTruncated     = errors.New("protocol: truncated payload")
)

// Hello introduces a peer after connecting.
type Hello struct {
	Peer    core.PeerID
	Sharing bool
}

// Request registers interest in an object and carries the requester's
// request tree pruned to the protocol depth.
type Request struct {
	Object catalog.ObjectID
	Tree   core.Tree
}

// Cancel withdraws a pending request.
type Cancel struct {
	Object catalog.ObjectID
}

// RingMember mirrors core.Member on the wire.
type RingMember struct {
	Peer  core.PeerID
	Gives catalog.ObjectID
	Addr  string
}

// RingProbe is the validation token: the initiator asks a prospective
// member whether it is still willing and able to take its position.
type RingProbe struct {
	RingID  uint64
	Members []RingMember
}

// RingAccept answers a probe.
type RingAccept struct {
	RingID uint64
	OK     bool
	Reason string
}

// RingCommit starts the ring at every member.
type RingCommit struct {
	RingID uint64
}

// RingAbort cancels a probed-but-uncommitted ring.
type RingAbort struct {
	RingID uint64
}

// RingQuit dissolves a running ring (a member completed or is leaving).
type RingQuit struct {
	RingID uint64
}

// Manifest announces an object's block layout and digests so the receiver
// can validate each block as it arrives (Section III-B).
// Session identifies the upload session that is sending: the receiver
// grants a lane to a session and must never mix blocks across a sender's
// sessions (mediated transfers seal blocks under a per-session key).
type Manifest struct {
	Object  catalog.ObjectID
	Size    uint64
	Blocks  uint32
	Session uint64
	Digests [][32]byte
}

// Block carries one fixed-size block. RingID 0 marks a non-exchange
// transfer. Origin and Recipient form the control header of the mediated
// scheme; they travel encrypted when Encrypted is set. Session names the
// upload session the block belongs to (and whose key sealed the payload,
// when sealed).
type Block struct {
	Object    catalog.ObjectID
	Index     uint32
	RingID    uint64
	Session   uint64
	Origin    core.PeerID
	Recipient core.PeerID
	Encrypted bool
	Payload   []byte
}

// BlockAck answers every block: OK acknowledges it as valid, !OK rejects it.
// Either frees one block of the sender's send window — one block for an
// exchange session (the synchronous block-for-block exchange of Section
// III-B) or a paced one, a few for a plain transfer. Session echoes the
// block's session so a sender never advances a live session on an ack
// addressed to a dead one.
type BlockAck struct {
	Object  catalog.ObjectID
	Index   uint32
	Session uint64
	OK      bool
}

// MedDeposit escrows a sender's block-encryption key with the mediator.
type MedDeposit struct {
	ExchangeID uint64
	Sender     core.PeerID
	Object     catalog.ObjectID
	Key        [16]byte
}

// MedVerify asks the mediator to audit what the requester received from
// Sender and, if it checks out, release the sender's key to the requester.
// Samples are whole sealed blocks, judged header and content; Receipts stand
// for the blocks of a lane, judged by their control headers alone. Blocks is
// the object's block count as the requester fixed it; an audit with
// receipts passes only when the registry counts the same.
type MedVerify struct {
	ExchangeID uint64
	Requester  core.PeerID
	Sender     core.PeerID
	Object     catalog.ObjectID
	Blocks     uint32
	Samples    []Block
	Receipts   []Receipt
}

// Receipt is a requester's account of one sealed block it holds: the block's
// index and a copy of its 16-byte sealed control header. The mediator opens
// the header under the sender's escrowed key; the payload never travels.
type Receipt struct {
	Index  uint32
	Header [16]byte
}

// receiptLen is a Receipt's encoded size.
const receiptLen = 4 + 16

// MedKey releases an escrowed key, with the registry's digest of every block
// the audit carried a receipt for, in receipt order (none on a deposit
// acknowledgement or a sample-only audit).
type MedKey struct {
	ExchangeID uint64
	Key        [16]byte
	Digests    [][32]byte
}

// MedReject reason codes. The distinction matters to clients: an audit
// failure proves the claimed sender cheated, while a missing key is
// transient (the deposit has not arrived yet, or the owning shard restarted
// and lost its escrow) and must not be held against anyone.
const (
	MedRejectAudit      uint8 = 0 // samples contradict the claim: the sender cheated
	MedRejectNoKey      uint8 = 1 // no escrowed key for the claimed sender (transient)
	MedRejectOversize   uint8 = 2 // request exceeded the mediator's audit limits
	MedRejectBadRequest uint8 = 3 // request malformed or misrouted (requester's fault; nobody is flagged)
)

// MedReject reports a refused deposit or verification; Code says whether the
// audit actually failed or the request could not be judged.
type MedReject struct {
	ExchangeID uint64
	Code       uint8
	Reason     string
}

// MedFlag writes one audit verdict through to the object's other owner: the
// shard that flagged Peer sends it, in a one-way Envelope, so losing the
// auditing shard does not lose the only record of who cheated. The receiver
// adds one to Peer's flag count and never answers.
type MedFlag struct {
	Peer core.PeerID
}

// Envelope wraps an RPC-shaped message with a request identifier so many
// requests can share one connection concurrently: the responder echoes the
// ReqID on its reply and the requester's demultiplexing read loop routes it
// back to the in-flight call. Every mediator request travels in one — a
// mediator closes a connection that sends it a bare request — while node to
// node traffic stays unenveloped. ReqID 0 is the one-way form: the mediator
// applies the request in arrival order and sends no reply, which is how a
// shard writes a deposit or a flag through to the object's other owner;
// requesters that want an answer number from 1. Envelopes never nest. Msg must
// be non-nil when encoding.
type Envelope struct {
	ReqID uint64
	Msg   Message
}

// StripeGrant assigns an upload session its lane of a download: the
// receiver grants the session leave to send block indices congruent to
// Stripe modulo Stripes. Stripes is 1 for a single-origin transfer; the
// sender must not send blocks before the grant arrives.
type StripeGrant struct {
	Object  catalog.ObjectID
	Session uint64
	Stripe  uint32
	Stripes uint32
}

// Compile-time interface checks.
var (
	_ Message = (*Hello)(nil)
	_ Message = (*Request)(nil)
	_ Message = (*Cancel)(nil)
	_ Message = (*RingProbe)(nil)
	_ Message = (*RingAccept)(nil)
	_ Message = (*RingCommit)(nil)
	_ Message = (*RingAbort)(nil)
	_ Message = (*RingQuit)(nil)
	_ Message = (*Manifest)(nil)
	_ Message = (*Block)(nil)
	_ Message = (*BlockAck)(nil)
	_ Message = (*MedDeposit)(nil)
	_ Message = (*MedVerify)(nil)
	_ Message = (*MedKey)(nil)
	_ Message = (*MedReject)(nil)
	_ Message = (*MedFlag)(nil)
	_ Message = (*Envelope)(nil)
	_ Message = (*StripeGrant)(nil)
)

// Type implementations.
func (*Hello) Type() Type       { return TypeHello }
func (*Request) Type() Type     { return TypeRequest }
func (*Cancel) Type() Type      { return TypeCancel }
func (*RingProbe) Type() Type   { return TypeRingProbe }
func (*RingAccept) Type() Type  { return TypeRingAccept }
func (*RingCommit) Type() Type  { return TypeRingCommit }
func (*RingAbort) Type() Type   { return TypeRingAbort }
func (*RingQuit) Type() Type    { return TypeRingQuit }
func (*Manifest) Type() Type    { return TypeManifest }
func (*Block) Type() Type       { return TypeBlock }
func (*BlockAck) Type() Type    { return TypeBlockAck }
func (*MedDeposit) Type() Type  { return TypeMedDeposit }
func (*MedVerify) Type() Type   { return TypeMedVerify }
func (*MedKey) Type() Type      { return TypeMedKey }
func (*MedReject) Type() Type   { return TypeMedReject }
func (*MedFlag) Type() Type     { return TypeMedFlag }
func (*Envelope) Type() Type    { return TypeEnvelope }
func (*StripeGrant) Type() Type { return TypeStripeGrant }

// New returns a zero message of the given wire type.
func New(t Type) (Message, error) {
	switch t {
	case TypeHello:
		return &Hello{}, nil
	case TypeRequest:
		return &Request{}, nil
	case TypeCancel:
		return &Cancel{}, nil
	case TypeRingProbe:
		return &RingProbe{}, nil
	case TypeRingAccept:
		return &RingAccept{}, nil
	case TypeRingCommit:
		return &RingCommit{}, nil
	case TypeRingAbort:
		return &RingAbort{}, nil
	case TypeRingQuit:
		return &RingQuit{}, nil
	case TypeManifest:
		return &Manifest{}, nil
	case TypeBlock:
		return &Block{}, nil
	case TypeBlockAck:
		return &BlockAck{}, nil
	case TypeMedDeposit:
		return &MedDeposit{}, nil
	case TypeMedVerify:
		return &MedVerify{}, nil
	case TypeMedKey:
		return &MedKey{}, nil
	case TypeMedReject:
		return &MedReject{}, nil
	case TypeMedFlag:
		return &MedFlag{}, nil
	case TypeEnvelope:
		return &Envelope{}, nil
	case TypeStripeGrant:
		return &StripeGrant{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
}

// AppendEncode serializes msg into a self-delimiting frame appended to dst
// and returns the extended slice. Senders on a hot path pass a retained
// scratch buffer (dst[:0]) so steady-state encoding allocates nothing; the
// returned slice must not be retained past the next AppendEncode into the
// same scratch.
func AppendEncode(dst []byte, msg Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0) // header hole, patched below
	w := writer{buf: dst}
	msg.encode(&w)
	dst = w.buf
	payload := len(dst) - start - 5
	if payload+1 > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(payload+1))
	dst[start+4] = byte(msg.Type())
	return dst, nil
}

// AppendBlockHead appends the part of b's frame that precedes the payload
// bytes — frame header and fixed fields — so that the result followed by
// b.Payload is byte for byte AppendEncode(dst, b). A sender that writes the
// two pieces in one gathered write never copies the payload.
func AppendBlockHead(dst []byte, b *Block) ([]byte, error) {
	size := 1 + blockFixed + len(b.Payload)
	if size > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(size))
	w := writer{buf: append(dst, byte(TypeBlock))}
	b.encodeFixed(&w)
	return w.buf, nil
}

// DecodeBuf parses one frame from r (blocking until a full frame arrives),
// reading the frame body into scratch (grown as needed) instead of
// allocating per frame, and returns the possibly-grown scratch for reuse.
// Receivers on a hot path keep a retained per-connection scratch — the
// AppendEncode mirror for the decode side.
// Decoded messages never alias the scratch, so the same buffer is safe to
// reuse for the next frame immediately: variable-length fields copy out of
// it, and a Block frame's payload never enters it — only the blockFixed bytes
// ahead of the payload do, and the payload is read from r straight into an
// exact-size buffer the message owns.
func DecodeBuf(r io.Reader, scratch []byte) (Message, []byte, error) {
	if cap(scratch) < blockFixed {
		scratch = make([]byte, blockFixed)
	}
	hdr := scratch[:5]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, scratch, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size == 0 || size > MaxFrame {
		return nil, scratch, ErrFrameTooLarge
	}
	typ, n := Type(hdr[4]), int(size-1)
	if typ == TypeBlock {
		blk, err := readBlock(r, scratch[:blockFixed], n)
		if err != nil {
			return nil, scratch, err
		}
		return blk, scratch, nil
	}
	msg, err := New(typ)
	if err != nil {
		return nil, scratch, err
	}
	if cap(scratch) < n {
		scratch = make([]byte, n)
	}
	payload := scratch[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, scratch, err
	}
	rd := &reader{buf: payload}
	if err := msg.decode(rd); err != nil {
		return nil, scratch, err
	}
	return msg, scratch, nil
}

// readBlock decodes the n body bytes of a Block frame: the fixed fields
// through fixed (blockFixed bytes of the caller's scratch), then the payload
// from r into a buffer of exactly its length. The payload length must account
// for the rest of the frame to the byte, which is checked before anything is
// allocated for it — a few-byte frame cannot claim a MaxFrame buffer, and a
// frame with bytes after its payload is refused rather than half-read.
func readBlock(r io.Reader, fixed []byte, n int) (*Block, error) {
	if n < blockFixed {
		return nil, ErrTruncated
	}
	if _, err := io.ReadFull(r, fixed); err != nil {
		return nil, err
	}
	m := &Block{}
	rd := reader{buf: fixed}
	if size := m.decodeFixed(&rd); size != n-blockFixed {
		return nil, fmt.Errorf("%w: block claims %d payload bytes, frame carries %d", ErrTruncated, size, n-blockFixed)
	}
	m.Payload = make([]byte, n-blockFixed)
	if _, err := io.ReadFull(r, m.Payload); err != nil {
		return nil, err
	}
	return m, nil
}

// --- primitive codec -------------------------------------------------------

// writer appends directly to the caller's frame buffer, so one encode is at
// most one allocation (the append growth) and zero at steady state.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }
func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) str(s string) {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) raw(p []byte) { w.buf = append(w.buf, p...) }

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

// count validates a decoded element count against both a hard cap and the
// bytes actually remaining (each element needs at least minBytes). Bounding
// by the remainder matters: pre-allocating from an attacker-claimed count
// alone would let a few-byte frame demand a multi-megabyte allocation
// (found by FuzzDecode).
func (r *reader) count(n, limit, minBytes int) int {
	if r.err != nil {
		return 0
	}
	if n < 0 || n > limit || n*minBytes > len(r.buf)-r.off {
		r.err = ErrTruncated
		return 0
	}
	return n
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}
func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}
func (r *reader) i32() int32 { return int32(r.u32()) }
func (r *reader) boolean() bool {
	return r.u8() == 1
}
func (r *reader) str() string {
	b := r.take(2)
	if b == nil {
		return ""
	}
	n := int(binary.BigEndian.Uint16(b))
	return string(r.take(n))
}

// copyOut takes the next n bytes as a copy the decoded message may keep.
func (r *reader) copyOut(n int) []byte {
	if r.err != nil || n < 0 || n > MaxFrame {
		r.err = ErrTruncated
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// --- per-message codecs -----------------------------------------------------

func (m *Hello) encode(w *writer) {
	w.i32(int32(m.Peer))
	w.boolean(m.Sharing)
}
func (m *Hello) decode(r *reader) error {
	m.Peer = core.PeerID(r.i32())
	m.Sharing = r.boolean()
	return r.err
}

func (m *Request) encode(w *writer) {
	w.i32(int32(m.Object))
	encodeTree(w, m.Tree)
}
func (m *Request) decode(r *reader) error {
	m.Object = catalog.ObjectID(r.i32())
	m.Tree = decodeTree(r)
	return r.err
}

func (m *Cancel) encode(w *writer) { w.i32(int32(m.Object)) }
func (m *Cancel) decode(r *reader) error {
	m.Object = catalog.ObjectID(r.i32())
	return r.err
}

func encodeTree(w *writer, t core.Tree) {
	w.i32(int32(t.Root))
	w.u32(uint32(len(t.Nodes)))
	for _, n := range t.Nodes {
		w.i32(int32(n.Peer))
		w.i32(int32(n.Object))
		w.i32(n.Parent)
	}
}
func decodeTree(r *reader) core.Tree {
	t := core.Tree{Root: core.PeerID(r.i32())}
	n := r.count(int(r.u32()), MaxFrame/12, 12) // 12 bytes per encoded node
	if r.err != nil {
		return t
	}
	t.Nodes = make([]core.TreeNode, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		t.Nodes = append(t.Nodes, core.TreeNode{
			Peer:   core.PeerID(r.i32()),
			Object: catalog.ObjectID(r.i32()),
			Parent: r.i32(),
		})
	}
	return t
}

func encodeMembers(w *writer, ms []RingMember) {
	w.u32(uint32(len(ms)))
	for _, m := range ms {
		w.i32(int32(m.Peer))
		w.i32(int32(m.Gives))
		w.str(m.Addr)
	}
}
func decodeMembers(r *reader) []RingMember {
	n := r.count(int(r.u32()), 1024, 10) // 4+4+2 bytes minimum per member
	if r.err != nil {
		return nil
	}
	out := make([]RingMember, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, RingMember{
			Peer:  core.PeerID(r.i32()),
			Gives: catalog.ObjectID(r.i32()),
			Addr:  r.str(),
		})
	}
	return out
}

func (m *RingProbe) encode(w *writer) {
	w.u64(m.RingID)
	encodeMembers(w, m.Members)
}
func (m *RingProbe) decode(r *reader) error {
	m.RingID = r.u64()
	m.Members = decodeMembers(r)
	return r.err
}

func (m *RingAccept) encode(w *writer) {
	w.u64(m.RingID)
	w.boolean(m.OK)
	w.str(m.Reason)
}
func (m *RingAccept) decode(r *reader) error {
	m.RingID = r.u64()
	m.OK = r.boolean()
	m.Reason = r.str()
	return r.err
}

func (m *RingCommit) encode(w *writer) { w.u64(m.RingID) }
func (m *RingCommit) decode(r *reader) error {
	m.RingID = r.u64()
	return r.err
}

func (m *RingAbort) encode(w *writer) { w.u64(m.RingID) }
func (m *RingAbort) decode(r *reader) error {
	m.RingID = r.u64()
	return r.err
}

func (m *RingQuit) encode(w *writer) { w.u64(m.RingID) }
func (m *RingQuit) decode(r *reader) error {
	m.RingID = r.u64()
	return r.err
}

func (m *Manifest) encode(w *writer) {
	w.i32(int32(m.Object))
	w.u64(m.Size)
	w.u32(m.Blocks)
	w.u64(m.Session)
	w.u32(uint32(len(m.Digests)))
	for _, d := range m.Digests {
		w.raw(d[:])
	}
}
func (m *Manifest) decode(r *reader) error {
	m.Object = catalog.ObjectID(r.i32())
	m.Size = r.u64()
	m.Blocks = r.u32()
	m.Session = r.u64()
	n := r.count(int(r.u32()), MaxFrame/32, 32)
	if r.err != nil {
		return r.err
	}
	m.Digests = make([][32]byte, 0, n)
	for i := 0; i < n; i++ {
		b := r.take(32)
		if b == nil {
			return r.err
		}
		var d [32]byte
		copy(d[:], b)
		m.Digests = append(m.Digests, d)
	}
	return r.err
}

// blockFixed is how many encoded bytes of a Block precede its payload bytes:
// the fields of encodeFixed, the payload's length prefix included.
const blockFixed = 4 + 4 + 8 + 8 + 4 + 4 + 1 + 4

func (m *Block) encodeFixed(w *writer) {
	w.i32(int32(m.Object))
	w.u32(m.Index)
	w.u64(m.RingID)
	w.u64(m.Session)
	w.i32(int32(m.Origin))
	w.i32(int32(m.Recipient))
	w.boolean(m.Encrypted)
	w.u32(uint32(len(m.Payload)))
}

// decodeFixed is encodeFixed's inverse; it returns the payload length.
func (m *Block) decodeFixed(r *reader) int {
	m.Object = catalog.ObjectID(r.i32())
	m.Index = r.u32()
	m.RingID = r.u64()
	m.Session = r.u64()
	m.Origin = core.PeerID(r.i32())
	m.Recipient = core.PeerID(r.i32())
	m.Encrypted = r.boolean()
	return int(r.u32())
}

func (m *Block) encode(w *writer) {
	m.encodeFixed(w)
	w.raw(m.Payload)
}

// decode is the copy-out path for a Block nested in another message (an audit
// sample, an envelope); a Block frame of its own goes through readBlock.
func (m *Block) decode(r *reader) error {
	m.Payload = r.copyOut(m.decodeFixed(r))
	return r.err
}

func (m *BlockAck) encode(w *writer) {
	w.i32(int32(m.Object))
	w.u32(m.Index)
	w.u64(m.Session)
	w.boolean(m.OK)
}
func (m *BlockAck) decode(r *reader) error {
	m.Object = catalog.ObjectID(r.i32())
	m.Index = r.u32()
	m.Session = r.u64()
	m.OK = r.boolean()
	return r.err
}

func (m *MedDeposit) encode(w *writer) {
	w.u64(m.ExchangeID)
	w.i32(int32(m.Sender))
	w.i32(int32(m.Object))
	w.raw(m.Key[:])
}
func (m *MedDeposit) decode(r *reader) error {
	m.ExchangeID = r.u64()
	m.Sender = core.PeerID(r.i32())
	m.Object = catalog.ObjectID(r.i32())
	b := r.take(16)
	if b == nil {
		return r.err
	}
	copy(m.Key[:], b)
	return r.err
}

func (m *MedVerify) encode(w *writer) {
	w.u64(m.ExchangeID)
	w.i32(int32(m.Requester))
	w.i32(int32(m.Sender))
	w.i32(int32(m.Object))
	w.u32(m.Blocks)
	w.u32(uint32(len(m.Samples)))
	for i := range m.Samples {
		m.Samples[i].encode(w)
	}
	w.u32(uint32(len(m.Receipts)))
	for i := range m.Receipts {
		w.u32(m.Receipts[i].Index)
		w.raw(m.Receipts[i].Header[:])
	}
}
func (m *MedVerify) decode(r *reader) error {
	m.ExchangeID = r.u64()
	m.Requester = core.PeerID(r.i32())
	m.Sender = core.PeerID(r.i32())
	m.Object = catalog.ObjectID(r.i32())
	m.Blocks = r.u32()
	n := r.count(int(r.u32()), 4096, blockFixed)
	if r.err != nil {
		return r.err
	}
	if n > 0 {
		m.Samples = make([]Block, n)
	}
	for i := 0; i < n; i++ {
		if err := m.Samples[i].decode(r); err != nil {
			return err
		}
	}
	n = r.count(int(r.u32()), MaxFrame/receiptLen, receiptLen)
	if r.err != nil || n == 0 {
		return r.err
	}
	m.Receipts = make([]Receipt, n)
	for i := range m.Receipts {
		m.Receipts[i].Index = r.u32()
		copy(m.Receipts[i].Header[:], r.take(16))
	}
	return r.err
}

func (m *MedKey) encode(w *writer) {
	w.u64(m.ExchangeID)
	w.raw(m.Key[:])
	w.u32(uint32(len(m.Digests)))
	for _, d := range m.Digests {
		w.raw(d[:])
	}
}
func (m *MedKey) decode(r *reader) error {
	m.ExchangeID = r.u64()
	b := r.take(16)
	if b == nil {
		return r.err
	}
	copy(m.Key[:], b)
	n := r.count(int(r.u32()), MaxFrame/32, 32)
	if r.err != nil || n == 0 {
		return r.err
	}
	m.Digests = make([][32]byte, n)
	for i := range m.Digests {
		copy(m.Digests[i][:], r.take(32))
	}
	return r.err
}

func (m *MedReject) encode(w *writer) {
	w.u64(m.ExchangeID)
	w.u8(m.Code)
	w.str(m.Reason)
}
func (m *MedReject) decode(r *reader) error {
	m.ExchangeID = r.u64()
	m.Code = r.u8()
	m.Reason = r.str()
	return r.err
}

func (m *MedFlag) encode(w *writer) { w.i32(int32(m.Peer)) }
func (m *MedFlag) decode(r *reader) error {
	m.Peer = core.PeerID(r.i32())
	return r.err
}

func (m *Envelope) encode(w *writer) {
	w.u64(m.ReqID)
	w.u8(byte(m.Msg.Type()))
	m.Msg.encode(w)
}
func (m *Envelope) decode(r *reader) error {
	m.ReqID = r.u64()
	typ := Type(r.u8())
	if r.err != nil {
		return r.err
	}
	// Nested envelopes are forbidden: a frame of repeated envelope tags
	// would otherwise recurse to stack exhaustion (found by FuzzDecode
	// design review, guarded before it could find it the hard way).
	if typ == TypeEnvelope {
		r.err = fmt.Errorf("%w: nested envelope", ErrUnknownType)
		return r.err
	}
	inner, err := New(typ)
	if err != nil {
		r.err = err
		return r.err
	}
	if err := inner.decode(r); err != nil {
		return err
	}
	m.Msg = inner
	return r.err
}

func (m *StripeGrant) encode(w *writer) {
	w.i32(int32(m.Object))
	w.u64(m.Session)
	w.u32(m.Stripe)
	w.u32(m.Stripes)
}
func (m *StripeGrant) decode(r *reader) error {
	m.Object = catalog.ObjectID(r.i32())
	m.Session = r.u64()
	m.Stripe = r.u32()
	m.Stripes = r.u32()
	return r.err
}
