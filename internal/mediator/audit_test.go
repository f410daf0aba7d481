package mediator

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/protocol"
)

// openVerdict is the audit of one sample as handleVerify performed it before
// it streamed: Open materialises the plaintext, sha256.Sum256 digests it.
// auditSample must reach this verdict, word for word.
func openVerdict(key [16]byte, sample *protocol.Block, sender, requester core.PeerID, digests [][32]byte) string {
	origin, recipient, payload, err := Open(key, sample.Object, sample.Index, sample.Payload)
	if err != nil {
		return fmt.Sprintf("sample %d: %v", sample.Index, err)
	}
	if origin != sender {
		return fmt.Sprintf("sample %d authored by %d, not %d", sample.Index, origin, sender)
	}
	if recipient != requester {
		return fmt.Sprintf("sample %d addressed to %d, not %d", sample.Index, recipient, requester)
	}
	if int(sample.Index) >= len(digests) || sha256.Sum256(payload) != digests[sample.Index] {
		return fmt.Sprintf("sample %d fails content audit", sample.Index)
	}
	return ""
}

// TestAuditSampleMatchesOpen runs every way a sample can hold up or convict,
// at payload sizes on both sides of the auditor's 4 KiB scratch, through one
// auditor per size — so a sample also meets the scratch and hash state its
// predecessors left behind.
func TestAuditSampleMatchesOpen(t *testing.T) {
	const (
		obj       = catalog.ObjectID(42)
		sender    = core.PeerID(7)
		requester = core.PeerID(9)
		index     = 2 // the audited position; the oracle knows indexes 0..2
	)
	key := [16]byte{1, 2, 3}
	for _, size := range []int{0, 1, 4095, 4096, 4097, 16 << 10} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i*31 + size)
		}
		digests := make([][32]byte, index+1)
		digests[index] = sha256.Sum256(payload)
		seal := func(origin, recipient core.PeerID, at uint32) []byte {
			sealed, err := Seal(key, origin, recipient, obj, at, payload)
			if err != nil {
				t.Fatal(err)
			}
			return sealed
		}
		flipped := seal(sender, requester, index)
		flipped[len(flipped)-1] ^= 0x10 // the last payload bit's byte; the header's when there is no payload
		cases := []struct {
			name    string
			index   uint32
			sealed  []byte
			convict bool
		}{
			{"honest", index, seal(sender, requester, index), false},
			{"flipped bit", index, flipped, true},
			{"wrong origin", index, seal(sender+1, requester, index), true},
			{"wrong recipient", index, seal(sender, requester+1, index), true},
			{"wrong position", index, seal(sender, requester, index-1), true},
			{"too short", index, seal(sender, requester, index)[:headerLen-1], true},
			{"index beyond oracle", index + 1, seal(sender, requester, index+1), true},
			{"honest again", index, seal(sender, requester, index), false},
		}
		a, err := newAuditor(key)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			sample := &protocol.Block{Object: obj, Index: tc.index, Payload: tc.sealed}
			before := bytes.Clone(tc.sealed)
			got := a.auditSample(sample, sender, requester, digests)
			want := openVerdict(key, sample, sender, requester, digests)
			if got != want {
				t.Errorf("size %d, %s: auditSample says %q, Open + Sum256 says %q", size, tc.name, got, want)
			}
			if (got != "") != tc.convict {
				t.Errorf("size %d, %s: verdict %q, want convict=%v", size, tc.name, got, tc.convict)
			}
			if !bytes.Equal(tc.sealed, before) {
				t.Errorf("size %d, %s: the audit wrote into the sample", size, tc.name)
			}
		}
	}
}
