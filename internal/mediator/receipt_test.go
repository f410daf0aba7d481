package mediator_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"reflect"
	"testing"

	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
	"barter/internal/protocol"
)

// TestReceiptAudit is the receipt rule: a receipt must open under the
// claimed sender's escrowed key to a header naming that sender, the
// requester and the receipt's own position, or the sender is flagged. A
// receipt-only audit that holds up, from a requester that counts the
// object's blocks as the registry does, returns the registry's digests in
// receipt order, and what it cannot judge flags nobody.
func TestReceiptAudit(t *testing.T) {
	const peerA, peerB, peerM core.PeerID = 1, 2, 3
	keyA := [16]byte{'A'}
	// receipt copies the header of block i sealed under key by origin for
	// recipient, and presents it at position at.
	receipt := func(t *testing.T, blocks [][]byte, key [16]byte, origin, recipient core.PeerID, i int, at uint32) protocol.Receipt {
		t.Helper()
		sealed, err := mediator.Seal(key, origin, recipient, 42, uint32(i), blocks[i])
		if err != nil {
			t.Fatal(err)
		}
		return protocol.Receipt{Index: at, Header: [16]byte(sealed[:16])}
	}
	cases := []struct {
		name     string
		blocks   int // the requester's count of the object's blocks
		deposit  bool
		receipts func(t *testing.T, blocks [][]byte) []protocol.Receipt
		want     error // nil: the key and the registry's digests come back
		flagged  bool
	}{
		{"honest, out of order", 3, true, func(t *testing.T, b [][]byte) []protocol.Receipt {
			return []protocol.Receipt{receipt(t, b, keyA, peerA, peerB, 2, 2), receipt(t, b, keyA, peerA, peerB, 0, 0)}
		}, nil, false},
		{"another recipient", 3, true, func(t *testing.T, b [][]byte) []protocol.Receipt {
			return []protocol.Receipt{receipt(t, b, keyA, peerA, peerB, 0, 0), receipt(t, b, keyA, peerA, peerM, 1, 1)}
		}, medclient.ErrRejected, true},
		{"another origin", 3, true, func(t *testing.T, b [][]byte) []protocol.Receipt {
			return []protocol.Receipt{receipt(t, b, keyA, peerM, peerB, 1, 1)}
		}, medclient.ErrRejected, true},
		{"wrong position", 3, true, func(t *testing.T, b [][]byte) []protocol.Receipt {
			return []protocol.Receipt{receipt(t, b, keyA, peerA, peerB, 1, 2)}
		}, medclient.ErrRejected, true},
		{"beyond the object", 4, true, func(t *testing.T, b [][]byte) []protocol.Receipt {
			return []protocol.Receipt{receipt(t, append(b, []byte("block-three")), keyA, peerA, peerB, 3, 3)}
		}, medclient.ErrRejected, true},
		{"no deposit", 3, false, func(t *testing.T, b [][]byte) []protocol.Receipt {
			return []protocol.Receipt{receipt(t, b, keyA, peerA, peerB, 0, 0)}
		}, medclient.ErrNoKey, false},
		// The registry counts 3 blocks. A requester that fixed another count
		// from a manifest is refused without a verdict: the digests of the
		// receipted blocks alone would pass a truncated object, and the
		// unsigned manifest is no evidence against its sender.
		{"fewer blocks", 2, true, func(t *testing.T, b [][]byte) []protocol.Receipt {
			return []protocol.Receipt{receipt(t, b, keyA, peerA, peerB, 0, 0), receipt(t, b, keyA, peerA, peerB, 1, 1)}
		}, medclient.ErrBadRequest, false},
		{"more blocks", 4, true, func(t *testing.T, b [][]byte) []protocol.Receipt {
			return []protocol.Receipt{receipt(t, b, keyA, peerA, peerB, 0, 0), receipt(t, b, keyA, peerA, peerB, 2, 2)}
		}, medclient.ErrBadRequest, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, med, obj, blocks := fixture(t)
			cl := client(t, tr)
			if tc.deposit {
				if err := cl.Deposit(900, peerA, obj, keyA); err != nil {
					t.Fatal(err)
				}
			}
			receipts := tc.receipts(t, blocks)
			key, digests, err := cl.Audit(900, peerB, peerA, obj, nil, receipts, tc.blocks)
			if !errors.Is(err, tc.want) {
				t.Fatalf("audit: %v, want %v", err, tc.want)
			}
			if (med.Flagged(peerA) > 0) != tc.flagged {
				t.Fatalf("sender carries %d flags, want flagged=%v", med.Flagged(peerA), tc.flagged)
			}
			if med.Flagged(peerB) != 0 || med.Flagged(peerM) != 0 {
				t.Fatal("the audit flagged someone other than the claimed sender")
			}
			if err != nil {
				return
			}
			if key != keyA {
				t.Fatal("released key differs from the deposit")
			}
			want := make([][32]byte, len(receipts))
			for i, rc := range receipts {
				want[i] = sha256.Sum256(blocks[rc.Index])
			}
			if !reflect.DeepEqual(digests, want) {
				t.Fatalf("released digests %x, want the registry's in receipt order %x", digests, want)
			}
			// The receipts passed; a junk block of the same session, sent
			// after them as a full sample, is the evidence that flags.
			junk, err := mediator.Seal(keyA, peerA, peerB, obj, 1, []byte("junk-one"))
			if err != nil {
				t.Fatal(err)
			}
			sample := []protocol.Block{{Object: obj, Index: 1, Origin: peerA, Recipient: peerB, Encrypted: true, Payload: junk}}
			if _, err := cl.Verify(900, peerB, peerA, obj, sample); !errors.Is(err, medclient.ErrRejected) {
				t.Fatalf("evidence after a passed receipt audit: %v, want ErrRejected", err)
			}
			if med.Flagged(peerA) == 0 {
				t.Fatal("evidence did not flag the sender")
			}
		})
	}
}

// TestReceiptsOverBoundRefused: an audit carrying more receipts than the
// bound is refused without a verdict and costs the connection, like one
// carrying too many samples.
func TestReceiptsOverBoundRefused(t *testing.T) {
	tr, med, obj, _ := fixture(t)
	conn, err := tr.Dial("mem://mediator")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	receipts := make([]protocol.Receipt, mediator.MaxVerifyReceipts+1)
	for i := range receipts {
		receipts[i].Index = uint32(i)
	}
	msg := rpc(t, conn, &protocol.MedVerify{ExchangeID: 910, Requester: 2, Sender: 1, Object: obj, Receipts: receipts})
	if rej, ok := msg.(*protocol.MedReject); !ok || rej.Code != protocol.MedRejectOversize {
		t.Fatalf("over-bound receipts answered with %T %+v", msg, msg)
	}
	if med.Flagged(1) != 0 {
		t.Fatal("over-bound receipts flagged the claimed sender")
	}
	if _, err := conn.Recv(); err == nil {
		t.Fatal("connection survived an over-bound audit")
	}
}

// TestCryptInPlace: Crypt opens a sealed block where it lies — to the
// payload Open returns, behind the 16-byte header — and a second Crypt
// seals it back to the very bytes that came, which is what evidence sent
// after an in-place check relies on.
func TestCryptInPlace(t *testing.T) {
	key := [16]byte{7, 7}
	payload := []byte("sixteen bytes and then some")
	sealed, err := mediator.Seal(key, 3, 4, 42, 9, payload)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), sealed...)
	mediator.Crypt(key, 42, 9, buf)
	if _, _, want, err := mediator.Open(key, 42, 9, sealed); err != nil || !bytes.Equal(buf[16:], want) {
		t.Fatalf("Crypt opened to %q, Open to %q (%v)", buf[16:], want, err)
	}
	mediator.Crypt(key, 42, 9, buf)
	if !bytes.Equal(buf, sealed) {
		t.Fatal("a second Crypt did not seal the block back as it came")
	}
}
