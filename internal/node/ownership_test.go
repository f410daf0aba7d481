package node

import (
	"crypto/sha256"
	"runtime"
	"testing"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/transport"
)

// TestBlockCopyBudget pins how often a payload byte is allocated on its way
// from one node's store to the next over real sockets, in the spirit of
// sim's TestPinnedCounts: once, into the slice it will be served from. The
// budget of twice the object leaves room for everything that is not payload
// (manifest, digests, acks, event closures); one more copy of the payload
// anywhere between the socket and the store breaks it. The connection is
// warmed by a one-block download first, so its buffers are not on the bill.
func TestBlockCopyBudget(t *testing.T) {
	const size, blockSize = 256 << 10, 16 << 10
	tn := &testNet{t: t, tr: transport.TCP{}, addrs: make(map[core.PeerID]string)}
	tcp := func(c *Config) { c.Addr, c.BlockSize = "127.0.0.1:0", blockSize }
	seed, dl := tn.spawn(1, tcp), tn.spawn(2, tcp)
	warm, obj := catalog.ObjectID(1), catalog.ObjectID(2)
	data := payload(obj, size)
	seed.AddObject(warm, payload(warm, blockSize))
	seed.AddObject(obj, data)
	from := map[core.PeerID]string{1: seed.Addr()}
	if err := WaitFor(dl.Download(warm, from), testTimeout); err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := WaitFor(dl.Download(obj, from), testTimeout)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 2*size {
		t.Errorf("a %d-byte download allocated %d bytes process-wide (%.2fx), want at most 2x", size, got, float64(got)/size)
	}
	if sha256.Sum256(dl.Object(obj)) != sha256.Sum256(data) {
		t.Fatal("downloaded bytes differ from the seeded object")
	}
}

// TestStoredBlocksSharedNotMutated is the sharing rule under -race on the
// in-memory transport, where a block is one slice from the seeder's
// AddObject to the last downloader's store: an object outlives the node it
// came from, is served onward byte for byte, and Object hands out a private
// copy — scribbling over it changes nothing any node serves.
func TestStoredBlocksSharedNotMutated(t *testing.T) {
	const size = 20*1024 + 300 // a short last block
	forEachDeployment(t, size, func(t *testing.T, mn *medNet) {
		obj := catalog.ObjectID(7)
		want := sha256.Sum256(payload(obj, size))
		a := mn.spawnMediated(1, nil)
		b := mn.spawnMediated(2, nil)
		c := mn.spawnMediated(3, nil)
		d := mn.spawnMediated(4, nil)
		a.AddObject(obj, payload(obj, size))

		if err := WaitFor(b.Download(obj, map[core.PeerID]string{1: a.Addr()}), testTimeout); err != nil {
			t.Fatalf("B from A: %v", err)
		}
		a.Close()
		fromB := map[core.PeerID]string{2: b.Addr()}
		if err := WaitFor(c.Download(obj, fromB), testTimeout); err != nil {
			t.Fatalf("C from B: %v", err)
		}
		if sha256.Sum256(c.Object(obj)) != want {
			t.Fatal("C holds different bytes than A seeded")
		}

		mine := b.Object(obj)
		for i := range mine {
			mine[i] = 0xEE
		}
		if err := WaitFor(d.Download(obj, fromB), testTimeout); err != nil {
			t.Fatalf("D from B: %v", err)
		}
		for name, n := range map[string]*Node{"B": b, "C": c, "D": d} {
			if sha256.Sum256(n.Object(obj)) != want {
				t.Errorf("%s no longer holds the seeded bytes after a caller wrote into Object's result", name)
			}
		}
	})
}
