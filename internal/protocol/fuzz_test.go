package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"barter/internal/core"
)

// corpusMessages returns one representative of every wire message type, with
// every field populated, so the fuzzer starts from frames that exercise each
// per-message codec.
func corpusMessages() []Message {
	tree := core.Tree{
		Root: 1,
		Nodes: []core.TreeNode{
			{Peer: 2, Object: 10, Parent: -1},
			{Peer: 3, Object: 11, Parent: 0},
		},
	}
	return []Message{
		&Hello{Peer: 7, Sharing: true},
		&Request{Object: 42, Tree: tree},
		&Cancel{Object: 42},
		&RingProbe{RingID: 9, Members: []RingMember{
			{Peer: 1, Gives: 5, Addr: "mem://a"},
			{Peer: 2, Gives: 6, Addr: "mem://b"},
		}},
		&RingAccept{RingID: 9, OK: false, Reason: "no capacity"},
		&RingCommit{RingID: 9},
		&RingAbort{RingID: 9},
		&RingQuit{RingID: 9},
		&Manifest{Object: 5, Size: 96, Blocks: 3, Session: 11, Digests: [][32]byte{{1}, {2}, {3}}},
		&Block{Object: 5, Index: 2, RingID: 9, Session: 11, Origin: 1, Recipient: 2, Encrypted: true, Payload: []byte("payload")},
		&BlockAck{Object: 5, Index: 2, Session: 11, OK: true},
		&MedDeposit{ExchangeID: 3, Sender: 1, Object: 5, Key: [16]byte{9}},
		&MedVerify{ExchangeID: 3, Requester: 2, Sender: 1, Object: 5, Samples: []Block{
			{Object: 5, Index: 0, Origin: 1, Recipient: 2, Encrypted: true, Payload: []byte("x")},
		}},
		&MedKey{ExchangeID: 3, Key: [16]byte{9}},
		&MedVerify{ExchangeID: 3, Requester: 2, Sender: 1, Object: 5, Blocks: 4, Receipts: []Receipt{
			{Index: 0, Header: [16]byte{1}}, {Index: 3, Header: [16]byte{2}},
		}},
		&MedKey{ExchangeID: 3, Key: [16]byte{9}, Digests: [][32]byte{{1}, {2}}},
		&MedReject{ExchangeID: 3, Code: MedRejectNoKey, Reason: "digest mismatch"},
		&MedFlag{Peer: 2},
		&MedFlagAck{},
		&Envelope{ReqID: 6, Msg: &MedVerify{ExchangeID: 3, Requester: 2, Sender: 1, Object: 5, Samples: []Block{
			{Object: 5, Index: 0, Origin: 1, Recipient: 2, Encrypted: true, Payload: []byte("x")},
		}}},
		&Envelope{ReqID: 7, Msg: &MedKey{ExchangeID: 3, Key: [16]byte{9}}},
		&Envelope{ReqID: 8, Msg: &MedFlag{Peer: 2}},
		// ReqID 0, the one-way form a shard writes records through in.
		&Envelope{Msg: &MedDeposit{ExchangeID: 3, Sender: 1, Object: 5, Key: [16]byte{9}}},
		&StripeGrant{Object: 5, Session: 11, Stripe: 2, Stripes: 3},
	}
}

// refDecode is the copy-everything reader that DecodeBuf's Block path is
// checked against: the whole frame body goes into a fresh buffer and every
// field, payload included, is copied out of it by the message's own decode.
// The one rule it shares with readBlock is that a Block fills its frame to
// the byte.
func refDecode(data []byte) (Message, error) {
	r := bytes.NewReader(data)
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size == 0 || size > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	msg, err := New(Type(hdr[4]))
	if err != nil {
		return nil, err
	}
	if int(size-1) > r.Len() {
		return nil, io.ErrUnexpectedEOF
	}
	body := make([]byte, size-1)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	rd := &reader{buf: body}
	if err := msg.decode(rd); err != nil {
		return nil, err
	}
	if msg.Type() == TypeBlock && rd.off != len(body) {
		return nil, ErrTruncated
	}
	return msg, nil
}

// errClass buckets a codec error by the sentinel it wraps; anything else is
// the stream ending early.
func errClass(err error) string {
	for _, class := range []error{ErrFrameTooLarge, ErrUnknownType, ErrTruncated} {
		if errors.Is(err, class) {
			return class.Error()
		}
	}
	if err != nil {
		return "short stream"
	}
	return "ok"
}

// blockFrame builds a Block frame by hand: the fixed fields claim a payload
// of claimed bytes, the frame carries the bytes of carried.
func blockFrame(claimed uint32, carried []byte) []byte {
	w := writer{}
	(&Block{Object: 5, Index: 2, RingID: 9, Session: 11, Origin: 1, Recipient: 2}).encodeFixed(&w)
	body := binary.BigEndian.AppendUint32(w.buf[:blockFixed-4], claimed)
	return frameFor(TypeBlock, append(body, carried...))
}

// FuzzDecode feeds arbitrary frames to DecodeBuf. The invariants: it never
// panics; it agrees with refDecode on the message, or on the class of error
// when the input holds the whole frame its header declares (on a shorter
// input both must fail, but DecodeBuf may refuse a malformed Block before it
// reaches the end of the stream); a frame that decodes re-encodes into a
// frame that decodes to the same bytes (a stable round-trip); and a tree that
// decodes converts to a core tree without panicking.
func FuzzDecode(f *testing.F) {
	for _, m := range corpusMessages() {
		frame, err := AppendEncode(nil, m)
		if err != nil {
			f.Fatalf("encode corpus %T: %v", m, err)
		}
		f.Add(frame)
	}
	// Adversarial seeds: truncated header, unknown type, oversize length
	// prefix, and an element count far beyond the payload.
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 1, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	huge := []byte{0, 0, 0, 9, byte(TypeRequest), 0, 0, 0, 1}
	huge = binary.BigEndian.AppendUint32(huge, 1<<20) // tree claims 2^20 nodes
	f.Add(huge)
	// Envelope edges: a header that dies inside the ReqID, and a nested
	// envelope (the decoder must reject envelopes wrapping envelopes).
	f.Add([]byte{0, 0, 0, 4, byte(TypeEnvelope), 0, 0, 9})
	nested := binary.BigEndian.AppendUint64([]byte(nil), 5)
	nested = append(nested, byte(TypeEnvelope))
	nested = binary.BigEndian.AppendUint64(nested, 6)
	nested = append(nested, byte(TypeCancel))
	nested = binary.BigEndian.AppendUint32(nested, 1)
	f.Add(frameFor(TypeEnvelope, nested))
	// The one shard-to-shard message, cut off inside its only field.
	f.Add(frameFor(TypeMedFlag, []byte{0, 0, 2}))
	// Receipts whose count claims one more than the frame holds, and
	// exactly the one it holds.
	f.Add(receiptsFrame(2))
	f.Add(receiptsFrame(1))
	// The retired shard-map numbers, enveloped as a client sent them: each
	// must be refused as unknown, with its old payload left unread.
	for typ := Type(16); typ <= 18; typ++ {
		f.Add(frameFor(TypeEnvelope, append(binary.BigEndian.AppendUint64(nil, 1), byte(typ), 0, 0, 0, 0, 0, 0, 0, 4)))
	}
	// Block edges, where the payload bypasses the scratch: a payload length
	// that claims more than the frame carries, one that leaves bytes over, a
	// stream and a frame that end inside the fixed fields, an empty payload,
	// and a bare header claiming a MaxFrame body.
	f.Add(blockFrame(9, []byte("payload")))
	f.Add(blockFrame(3, []byte("payload")))
	f.Add(blockFrame(7, []byte("payload"))[:5+blockFixed-6])
	f.Add(frameFor(TypeBlock, make([]byte, blockFixed-1)))
	f.Add(blockFrame(0, nil))
	f.Add(append(binary.BigEndian.AppendUint32(nil, MaxFrame), byte(TypeBlock)))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, _, err := DecodeBuf(bytes.NewReader(data), nil)
		ref, refErr := refDecode(data)
		whole := len(data) >= 4 && uint64(len(data)) >= 4+uint64(binary.BigEndian.Uint32(data))
		switch {
		case (err == nil) != (refErr == nil), whole && errClass(err) != errClass(refErr):
			t.Fatalf("DecodeBuf err = %v, reference err = %v", err, refErr)
		case err == nil && !reflect.DeepEqual(msg, ref):
			t.Fatalf("DecodeBuf = %+v, reference = %+v", msg, ref)
		}
		if err != nil {
			return // malformed input must error, never panic
		}
		if req, ok := msg.(*Request); ok {
			// Whatever a decoded tree holds, composing and searching it
			// must not panic: BuildTree drops what does not hang together.
			tree := core.BuildTree(7, []core.IRQEntry{{Requester: req.Tree.Root, Object: req.Object, Attached: &req.Tree}}, core.DefaultMaxRing)
			for _, pol := range []core.Policy{core.Policy2N, core.PolicyN2} {
				core.FindRing(tree, []core.Want{{Object: 1, Providers: []core.PeerID{req.Tree.Root, 3, -1}}}, pol)
			}
		}
		frame, err := AppendEncode(nil, msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		msg2, _, err := DecodeBuf(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		frame2, err := AppendEncode(nil, msg2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(frame, frame2) {
			t.Fatalf("round-trip not stable:\n%x\n%x", frame, frame2)
		}
	})
}

// TestDecodeRoundTripsCorpus runs the fuzz corpus as a plain unit test, so
// every message type's round-trip is exercised on every `go test` run, not
// only under -fuzz.
func TestDecodeRoundTripsCorpus(t *testing.T) {
	for _, m := range corpusMessages() {
		frame, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, _, err := DecodeBuf(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		frame2, err := AppendEncode(nil, got)
		if err != nil {
			t.Fatalf("re-encode %T: %v", m, err)
		}
		if !bytes.Equal(frame, frame2) {
			t.Fatalf("%T round-trip differs:\n%x\n%x", m, frame, frame2)
		}
	}
}

// TestDecodeRejectsCountAmplification pins the fuzz-found hardening: a tiny
// frame claiming a huge element count must be rejected as truncated before
// any allocation sized by the claim.
func TestDecodeRejectsCountAmplification(t *testing.T) {
	cases := map[string][]byte{
		"tree nodes": func() []byte {
			payload := binary.BigEndian.AppendUint32(nil, 1) // request object
			payload = binary.BigEndian.AppendUint32(payload, 2)
			payload = binary.BigEndian.AppendUint32(payload, 1<<20) // node count
			return frameFor(TypeRequest, payload)
		}(),
		"manifest digests": func() []byte {
			payload := binary.BigEndian.AppendUint32(nil, 1)
			payload = binary.BigEndian.AppendUint64(payload, 32)
			payload = binary.BigEndian.AppendUint32(payload, 1)
			payload = binary.BigEndian.AppendUint32(payload, 400_000) // digest count
			return frameFor(TypeManifest, payload)
		}(),
		"verify samples": func() []byte {
			payload := binary.BigEndian.AppendUint64(nil, 1)
			payload = binary.BigEndian.AppendUint32(payload, 2)
			payload = binary.BigEndian.AppendUint32(payload, 1)
			payload = binary.BigEndian.AppendUint32(payload, 5)
			payload = binary.BigEndian.AppendUint32(payload, 4096) // sample count
			return frameFor(TypeMedVerify, payload)
		}(),
		"verify receipts": receiptsFrame(400_000),
		"key digests": func() []byte {
			payload := binary.BigEndian.AppendUint64(nil, 1)
			payload = append(payload, make([]byte, 16)...)
			payload = binary.BigEndian.AppendUint32(payload, 400_000) // digest count
			return frameFor(TypeMedKey, payload)
		}(),
	}
	for name, frame := range cases {
		if _, _, err := DecodeBuf(bytes.NewReader(frame), nil); err == nil {
			t.Fatalf("%s: amplified count accepted", name)
		}
	}
}

// receiptsFrame is a sample-free MedVerify whose receipt count claims n
// receipts and whose frame carries one.
func receiptsFrame(n uint32) []byte {
	payload := binary.BigEndian.AppendUint64(nil, 1)
	payload = binary.BigEndian.AppendUint32(payload, 2)
	payload = binary.BigEndian.AppendUint32(payload, 1)
	payload = binary.BigEndian.AppendUint32(payload, 5)
	payload = binary.BigEndian.AppendUint32(payload, 0) // sample count
	payload = binary.BigEndian.AppendUint32(payload, n) // receipt count
	return frameFor(TypeMedVerify, append(payload, make([]byte, receiptLen)...))
}

func frameFor(typ Type, payload []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)+1))
	out = append(out, byte(typ))
	return append(out, payload...)
}

// TestTreeRoundTripThroughCore: a decoded tree attached to a request comes
// out of BuildTree intact below the request's entry, its parents shifted
// past the entry.
func TestTreeRoundTripThroughCore(t *testing.T) {
	wire := core.Tree{
		Root: 1,
		Nodes: []core.TreeNode{
			{Peer: 2, Object: 10, Parent: -1},
			{Peer: 3, Object: 11, Parent: 0},
			{Peer: 4, Object: 12, Parent: 0},
			{Peer: 5, Object: 13, Parent: -1},
		},
	}
	frame, err := AppendEncode(nil, &Request{Object: 9, Tree: wire})
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := DecodeBuf(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := core.BuildTree(6, []core.IRQEntry{{Requester: 1, Object: 9, Attached: &msg.(*Request).Tree}}, core.DefaultMaxRing)
	want := []core.TreeNode{
		{Peer: 1, Object: 9, Parent: -1},
		{Peer: 2, Object: 10, Parent: 0},
		{Peer: 3, Object: 11, Parent: 1},
		{Peer: 4, Object: 12, Parent: 1},
		{Peer: 5, Object: 13, Parent: 0},
	}
	if !reflect.DeepEqual(got.Nodes, want) {
		t.Fatalf("composed nodes %+v, want %+v", got.Nodes, want)
	}
}
