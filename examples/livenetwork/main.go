// Livenetwork spins up a small real network of concurrent peers over the
// in-memory transport: three sharers whose wants form a cycle (a live 3-way
// exchange ring) plus a free-rider, and shows the exchange mechanism at
// work: the ring commits, blocks flow with per-block validation, and the
// free-rider is served only from spare capacity.
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"barter/internal/core"
	"barter/internal/node"
	"barter/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "livenetwork:", err)
		os.Exit(1)
	}
}

type directory struct {
	mu    sync.Mutex
	addrs map[core.PeerID]string
}

func (d *directory) set(id core.PeerID, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addrs[id] = addr
}

func (d *directory) lookup(id core.PeerID) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.addrs[id]
	return a, ok
}

func run() error {
	tr := transport.NewMem()
	dir := &directory{addrs: make(map[core.PeerID]string)}

	spawn := func(id core.PeerID, share bool) (*node.Node, error) {
		n, err := node.New(node.Config{
			ID:           id,
			Transport:    tr,
			Lookup:       dir.lookup,
			Share:        share,
			UploadSlots:  1, // tight capacity: priority matters
			BlockSize:    2048,
			BlockDelay:   time.Millisecond,
			TickInterval: 5 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		dir.set(id, n.Addr())
		return n, nil
	}

	alice, err := spawn(1, true)
	if err != nil {
		return err
	}
	defer alice.Close()
	bob, err := spawn(2, true)
	if err != nil {
		return err
	}
	defer bob.Close()
	carol, err := spawn(3, true)
	if err != nil {
		return err
	}
	defer carol.Close()
	rider, err := spawn(4, false)
	if err != nil {
		return err
	}
	defer rider.Close()

	// Content: each sharer holds the object its neighbor wants.
	const oAlice, oBob, oCarol = 100, 200, 300
	blob := func(seed byte) []byte {
		out := make([]byte, 400_000)
		for i := range out {
			out[i] = seed ^ byte(i)
		}
		return out
	}
	alice.AddObject(oAlice, blob(1))
	bob.AddObject(oBob, blob(2))
	carol.AddObject(oCarol, blob(3))

	fmt.Println("Topology: Carol wants Alice's object, Alice wants Bob's, Bob wants Carol's.")
	fmt.Println("The request chain closes into a live 3-way exchange ring.")
	fmt.Println()

	// The rider asks first — and gets preempted when the ring commits.
	riderCh := rider.Download(oAlice, map[core.PeerID]string{1: mustAddr(dir, 1)})
	time.Sleep(30 * time.Millisecond)

	carolCh := carol.Download(oAlice, map[core.PeerID]string{1: mustAddr(dir, 1)})
	time.Sleep(30 * time.Millisecond)
	aliceCh := alice.Download(oBob, map[core.PeerID]string{2: mustAddr(dir, 2)})
	time.Sleep(30 * time.Millisecond)
	bobCh := bob.Download(oCarol, map[core.PeerID]string{3: mustAddr(dir, 3)})

	start := time.Now()
	for name, ch := range map[string]<-chan error{"alice": aliceCh, "bob": bobCh, "carol": carolCh} {
		if err := node.WaitFor(ch, 60*time.Second); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%-5s completed its download after %v\n", name, time.Since(start).Round(time.Millisecond))
	}
	if err := node.WaitFor(riderCh, 60*time.Second); err != nil {
		return fmt.Errorf("rider: %w", err)
	}
	fmt.Printf("rider completed its download after %v (spare capacity only)\n", time.Since(start).Round(time.Millisecond))

	fmt.Println()
	for _, n := range []*node.Node{alice, bob, carol} {
		st := n.Stats()
		fmt.Printf("peer %d: rings joined %d, exchange blocks sent %d, preemptions %d\n",
			n.ID(), st.RingsJoined, st.ExchangeBlocksSent, st.Preemptions)
	}
	return nil
}

func mustAddr(d *directory, id core.PeerID) string {
	a, ok := d.lookup(id)
	if !ok {
		panic("peer not in directory")
	}
	return a
}
