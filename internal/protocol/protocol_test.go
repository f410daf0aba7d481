package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"barter/internal/catalog"
	"barter/internal/core"
)

func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	frame, err := AppendEncode(nil, msg)
	if err != nil {
		t.Fatalf("AppendEncode(%T): %v", msg, err)
	}
	got, _, err := DecodeBuf(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("DecodeBuf(%T): %v", msg, err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []Message{
		&Hello{Peer: 7, Sharing: true},
		&Request{Object: 42, Tree: core.Tree{Root: 7, Nodes: []core.TreeNode{
			{Peer: 8, Object: 9, Parent: -1},
			{Peer: 10, Object: 11, Parent: 0},
		}}},
		&Cancel{Object: 3},
		&RingProbe{RingID: 99, Members: []RingMember{
			{Peer: 1, Gives: 2, Addr: "mem://a"},
			{Peer: 3, Gives: 4, Addr: "mem://b"},
		}},
		&RingAccept{RingID: 99, OK: true, Reason: ""},
		&RingAccept{RingID: 100, OK: false, Reason: "no capacity"},
		&RingCommit{RingID: 99},
		&RingAbort{RingID: 99},
		&RingQuit{RingID: 99},
		&Manifest{Object: 5, Size: 1 << 20, Blocks: 4, Session: 12, Digests: [][32]byte{{1, 2}, {3, 4}}},
		&Block{Object: 5, Index: 2, RingID: 7, Session: 12, Origin: 1, Recipient: 2, Encrypted: true, Payload: []byte("hello world")},
		&BlockAck{Object: 5, Index: 2, Session: 11, OK: true},
		&MedDeposit{ExchangeID: 8, Sender: 1, Object: 5, Key: [16]byte{9, 9}},
		&MedVerify{ExchangeID: 8, Requester: 2, Sender: 1, Object: 5, Samples: []Block{
			{Object: 5, Index: 0, Payload: []byte("x")},
		}},
		&MedKey{ExchangeID: 8, Key: [16]byte{9, 9}},
		&MedVerify{ExchangeID: 8, Requester: 2, Sender: 1, Object: 5, Blocks: 6, Receipts: []Receipt{
			{Index: 3, Header: [16]byte{1, 2, 3}}, {Index: 0, Header: [16]byte{15: 0xff}},
		}},
		&MedKey{ExchangeID: 8, Key: [16]byte{9, 9}, Digests: [][32]byte{{7}, {31: 8}}},
		&MedReject{ExchangeID: 8, Code: MedRejectAudit, Reason: "origin mismatch"},
		&MedReject{ExchangeID: 9, Code: MedRejectNoKey, Reason: "no escrowed key"},
		&MedFlag{Peer: 3},
		&MedFlagAck{},
		&Envelope{ReqID: 77, Msg: &MedVerify{ExchangeID: 8, Requester: 2, Sender: 1, Object: 5, Samples: []Block{
			{Object: 5, Index: 0, Payload: []byte("x")},
		}}},
		&Envelope{ReqID: 0, Msg: &MedFlag{Peer: 3}},
		&Envelope{ReqID: 78, Msg: &MedFlagAck{}},
		&StripeGrant{Object: 5, Session: 12, Stripe: 1, Stripes: 3},
	}
	for _, msg := range msgs {
		got := roundTrip(t, msg)
		if !reflect.DeepEqual(msg, got) {
			t.Fatalf("%T round trip:\n sent %+v\n got  %+v", msg, msg, got)
		}
	}
}

func TestRoundTripEmptyPayloads(t *testing.T) {
	got := roundTrip(t, &Block{Payload: []byte{}})
	blk, ok := got.(*Block)
	if !ok || len(blk.Payload) != 0 {
		t.Fatalf("empty block round trip: %+v", got)
	}
	tr := roundTrip(t, &Request{Object: 1, Tree: core.Tree{Root: 2}})
	if req, ok := tr.(*Request); !ok || len(req.Tree.Nodes) != 0 {
		t.Fatalf("empty tree round trip: %+v", tr)
	}
}

// TestWireTypeNumbers pins every message type to its number on the wire. The
// constants sit in one iota block, so retiring or inserting one silently
// renumbers everything after it; a peer built before the change would then
// decode one message as another.
func TestWireTypeNumbers(t *testing.T) {
	want := []Type{
		1: TypeHello, 2: TypeRequest, 3: TypeCancel, 4: TypeRingProbe,
		5: TypeRingAccept, 6: TypeRingCommit, 7: TypeRingAbort, 8: TypeRingQuit,
		9: TypeManifest, 10: TypeBlock, 11: TypeBlockAck, 12: TypeMedDeposit,
		13: TypeMedVerify, 14: TypeMedKey, 15: TypeMedReject,
		19: TypeMedFlag, 20: TypeMedFlagAck,
		21: TypeEnvelope, 22: TypeStripeGrant,
	}
	for n := 1; n < len(want); n++ {
		if want[n] == 0 {
			// A retired number stays reserved: nothing decodes as it.
			if _, err := New(Type(n)); !errors.Is(err, ErrUnknownType) {
				t.Errorf("retired type %d is in use again", n)
			}
			continue
		}
		if want[n] != Type(n) {
			t.Errorf("type pinned to %d has number %d", n, want[n])
		}
		msg, err := New(Type(n))
		if err != nil || msg.Type() != Type(n) {
			t.Errorf("New(%d) = %T, %v", n, msg, err)
		}
	}
	if _, err := New(Type(len(want))); !errors.Is(err, ErrUnknownType) {
		t.Errorf("type %d past the last pinned one exists: add it to the table", len(want))
	}
}

// TestDecodeRejectsUnknownType covers a number never assigned and the three
// the shard-map protocol retired (16–18), each bare and inside an Envelope.
func TestDecodeRejectsUnknownType(t *testing.T) {
	for _, typ := range []Type{0xEE, 16, 17, 18} {
		bare := frameFor(typ, nil)
		enveloped := frameFor(TypeEnvelope, append(binary.BigEndian.AppendUint64(nil, 1), byte(typ)))
		for _, frame := range [][]byte{bare, enveloped} {
			if _, _, err := DecodeBuf(bytes.NewReader(frame), nil); !errors.Is(err, ErrUnknownType) {
				t.Fatalf("type %d, frame %x: err = %v, want ErrUnknownType", typ, frame, err)
			}
		}
	}
}

func TestDecodeRejectsOversizedFrame(t *testing.T) {
	var hdr [5]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0xFF
	hdr[4] = byte(TypeHello)
	if _, _, err := DecodeBuf(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	frame, err := AppendEncode(nil, &Block{Object: 1, Payload: []byte("abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(frame); cut++ {
		_, _, err := DecodeBuf(bytes.NewReader(frame[:cut]), nil)
		if err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(frame))
		}
	}
}

func TestDecodeCorruptInnerLength(t *testing.T) {
	// A Block whose inner payload length claims more bytes than the frame
	// holds must fail with ErrTruncated, not panic or over-read.
	msg := &Block{Object: 1, Payload: []byte("abc")}
	frame, err := AppendEncode(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	// Payload length field is the 4 bytes right before the payload.
	idx := bytes.Index(frame, []byte("abc")) - 4
	frame[idx] = 0xFF
	frame[idx+1] = 0xFF
	if _, _, err := DecodeBuf(bytes.NewReader(frame), nil); err == nil {
		t.Fatal("corrupt inner length accepted")
	}
}

// TestDecodeBlockLengthMismatch: a Block's payload length must account for
// the rest of its frame to the byte, in both directions.
func TestDecodeBlockLengthMismatch(t *testing.T) {
	cases := map[string][]byte{
		"claims more than the frame carries": blockFrame(9, []byte("payload")),
		"leaves bytes after the payload":     blockFrame(3, []byte("payload")),
		"frame ends inside the fixed fields": frameFor(TypeBlock, make([]byte, blockFixed-1)),
	}
	for name, frame := range cases {
		if _, _, err := DecodeBuf(bytes.NewReader(frame), nil); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", name, err)
		}
	}
}

// TestDecodeBlockAllocations pins the receive path's budget for a block: the
// message and its exact-size payload, nothing else — and nothing at all for a
// payload the stream does not back: a bare header claiming a MaxFrame body
// fails before any buffer is sized by the claim.
func TestDecodeBlockAllocations(t *testing.T) {
	frame, err := AppendEncode(nil, &Block{Object: 7, Index: 3, Session: 99, Origin: 1, Recipient: 2, Payload: make([]byte, 16<<10)})
	if err != nil {
		t.Fatal(err)
	}
	var rd bytes.Reader
	var scratch []byte
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(frame)
		if _, scratch, err = DecodeBuf(&rd, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("DecodeBuf of a 16 KiB block: %v allocations, want at most 2", allocs)
	}

	huge := append(binary.BigEndian.AppendUint32(nil, MaxFrame), byte(TypeBlock))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, _, err = DecodeBuf(bytes.NewReader(huge), nil)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("bare header decoded")
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 4<<10 {
		t.Errorf("bare header claiming a MaxFrame block allocated %d bytes", got)
	}
}

func TestDecodeEOF(t *testing.T) {
	if _, _, err := DecodeBuf(bytes.NewReader(nil), nil); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		frame, err := AppendEncode(nil, &BlockAck{Object: catalog.ObjectID(i), Index: uint32(i), OK: i%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	for i := 0; i < 10; i++ {
		msg, _, err := DecodeBuf(&buf, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		ack, ok := msg.(*BlockAck)
		if !ok || ack.Object != catalog.ObjectID(i) {
			t.Fatalf("frame %d decoded to %+v", i, msg)
		}
	}
}

// TestTreeConversionRoundTrip: the request tree a node builds is what the
// wire carries — root, node count, then peer, object and parent per node,
// all big-endian — and it decodes back unchanged.
func TestTreeConversionRoundTrip(t *testing.T) {
	sub := &core.Tree{Root: 2, Nodes: []core.TreeNode{{Peer: 3, Object: 30, Parent: -1}}}
	tree := core.BuildTree(1, []core.IRQEntry{
		{Requester: 2, Object: 20, Attached: sub},
		{Requester: 4, Object: 40},
	}, core.DefaultMaxRing)

	frame, err := AppendEncode(nil, &Request{Object: 9, Tree: *tree})
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	for _, v := range []int32{9, 1, 3, 2, 20, -1, 3, 30, 0, 4, 40, -1} {
		body = binary.BigEndian.AppendUint32(body, uint32(v))
	}
	if want := frameFor(TypeRequest, body); !bytes.Equal(frame, want) {
		t.Fatalf("frame\n%x\nwant\n%x", frame, want)
	}
	back := roundTrip(t, &Request{Object: 9, Tree: *tree}).(*Request)
	if back.Tree.Root != 1 || !slices.Equal(back.Tree.Nodes, tree.Nodes) {
		t.Fatalf("decoded tree %+v, want %+v", back.Tree, tree)
	}
}

// TestPropertyBlockRoundTrip fuzzes Block payload/field combinations.
func TestPropertyBlockRoundTrip(t *testing.T) {
	f := func(obj int32, idx uint32, ring uint64, origin, rcpt int32, enc bool, payload []byte) bool {
		in := &Block{
			Object:    catalog.ObjectID(obj),
			Index:     idx,
			RingID:    ring,
			Origin:    core.PeerID(origin),
			Recipient: core.PeerID(rcpt),
			Encrypted: enc,
			Payload:   payload,
		}
		frame, err := AppendEncode(nil, in)
		if err != nil {
			return false
		}
		// The gathered send (head, then the payload where it lies) must put
		// the same bytes on the wire as the one-buffer encode.
		head, err := AppendBlockHead(nil, in)
		if err != nil || !bytes.Equal(append(head, payload...), frame) {
			return false
		}
		out, _, err := DecodeBuf(bytes.NewReader(frame), nil)
		if err != nil {
			return false
		}
		got, ok := out.(*Block)
		if !ok {
			return false
		}
		if len(payload) == 0 {
			return len(got.Payload) == 0
		}
		return reflect.DeepEqual(in, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDecodeNeverPanics feeds random bytes to the decoder.
func TestPropertyDecodeNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("decode panicked: %v", r)
			}
		}()
		_, _, _ = DecodeBuf(bytes.NewReader(raw), nil) //nolint:errcheck // errors expected on garbage
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeBlock(b *testing.B) {
	// The live send path (transport.tcpConn.Send) re-encodes into a retained
	// per-connection scratch; measure that path, not the allocate-per-frame
	// convenience wrapper.
	msg := &Block{Object: 1, Index: 2, Payload: make([]byte, 4096)}
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := AppendEncode(scratch[:0], msg)
		if err != nil {
			b.Fatal(err)
		}
		scratch = frame
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	// The live receive path (transport.tcpConn.Recv) decodes into a retained
	// per-connection scratch; measure that path, not the allocate-per-frame
	// convenience wrapper.
	frame, err := AppendEncode(nil, &Block{Object: 1, Index: 2, Payload: make([]byte, 4096)})
	if err != nil {
		b.Fatal(err)
	}
	var scratch []byte
	rd := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		msg, buf, err := DecodeBuf(rd, scratch)
		if err != nil {
			b.Fatal(err)
		}
		_ = msg
		scratch = buf
	}
}
