package mediator

import (
	"os"
	"path/filepath"
	"testing"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/protocol"
	"barter/internal/transport"
)

func replayAll(t *testing.T, path string) ([]walDeposit, map[core.PeerID]uint32) {
	t.Helper()
	var deps []walDeposit
	flags := make(map[core.PeerID]uint32)
	w, err := openWAL(path,
		func(d walDeposit) { deps = append(deps, d) },
		func(p core.PeerID, n uint32) { flags[p] += n },
	)
	if err != nil {
		t.Fatalf("openWAL replay: %v", err)
	}
	w.Close()
	return deps, flags
}

func TestWALReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.wal")
	w, err := openWAL(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := walDeposit{exchange: 7, sender: 3, object: 9, key: [16]byte{1, 2, 3}}
	w.appendDeposit(want)
	w.appendFlag(5, 2)
	w.appendFlag(5, 1)
	w.Close()

	deps, flags := replayAll(t, path)
	if len(deps) != 1 || deps[0] != want {
		t.Fatalf("replayed deposits %+v, want [%+v]", deps, want)
	}
	if flags[5] != 3 {
		t.Fatalf("replayed flag count %d, want 3", flags[5])
	}
}

func TestWALTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-1.wal")
	w, err := openWAL(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.appendDeposit(walDeposit{exchange: 1, sender: 2, object: 3})
	w.Close()
	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a record header with no payload.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{walTypFlag, 0xAA}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	deps, _ := replayAll(t, path)
	if len(deps) != 1 {
		t.Fatalf("replay after torn tail found %d deposits, want 1", len(deps))
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != intact.Size() {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", after.Size(), intact.Size())
	}

	// The log must keep working after the repair.
	w2, err := openWAL(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w2.appendFlag(9, 1)
	w2.Close()
	deps, flags := replayAll(t, path)
	if len(deps) != 1 || flags[9] != 1 {
		t.Fatalf("append after repair lost records: deposits=%d flags=%v", len(deps), flags)
	}
}

func TestWALDropsCorruptRecordAndTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-2.wal")
	w, err := openWAL(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.appendFlag(1, 1)
	w.appendFlag(2, 1)
	w.Close()
	// Flip a payload byte inside the first record: its checksum fails, and
	// replay must stop there — the second record is unreachable without
	// trusting a corrupt length chain.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(walMagic)+1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, flags := replayAll(t, path)
	if len(flags) != 0 {
		t.Fatalf("corrupt record replayed: %v", flags)
	}
}

// TestWALAppendFailureSurfaces pins the degraded-durability contract: an
// append that cannot reach the file keeps the shard serving, but the first
// error is remembered and every lost record counted in the shard's own
// Counts — never silently swallowed (the unchecked-io contract in
// docs/DETERMINISM.md).
func TestWALAppendFailureSurfaces(t *testing.T) {
	oracle := func(catalog.ObjectID) ([][32]byte, bool) { return nil, false }
	m, err := NewShard(transport.NewMem(), "mem://wal-fails", oracle, ShardOpts{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.wal.err != nil {
		t.Fatalf("fresh wal already degraded: %v", m.wal.err)
	}
	// Close the file out from under the log: every subsequent append must
	// fail the way a revoked fd or torn-down filesystem would make it fail.
	if err := m.wal.f.Close(); err != nil {
		t.Fatal(err)
	}
	m.flag(1)
	var reply protocol.Message
	m.handleRPC(func(msg protocol.Message) error { reply = msg; return nil },
		&protocol.Envelope{ReqID: 1, Msg: &protocol.MedDeposit{ExchangeID: 1, Sender: 2, Object: 3}})
	if _, ok := reply.(*protocol.MedKey); !ok {
		t.Fatalf("deposit onto a failing log answered %T, want the acknowledgement", reply)
	}
	if m.wal.err == nil {
		t.Fatal("append onto a closed file reported no error")
	}
	if got := m.Counts(); got != (Counts{WALLost: 2}) {
		t.Fatalf("Counts = %+v, want 2 records lost from the WAL", got)
	}
}
