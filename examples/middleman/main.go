// Middleman demonstrates the Section III-B cheating scenario and its
// defense. Peer M sits between A and C, who could exchange directly: M
// relays A's blocks to C and C's blocks to A, obtaining high-priority
// service while contributing nothing. With the trusted mediator, both
// directions are encrypted, every block carries an encrypted origin and
// recipient header, and the audit refuses to release keys for blocks the
// claimed sender did not author — so the relay gains M nothing.
package main

import (
	"crypto/sha256"
	"fmt"
	"os"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
	"barter/internal/protocol"
	"barter/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "middleman:", err)
		os.Exit(1)
	}
}

func run() error {
	tr := transport.NewMem()

	// The content registry is the mediator's trustworthy digest source.
	const objX, objY catalog.ObjectID = 1, 2
	blocksX := [][]byte{[]byte("x-block-0"), []byte("x-block-1")}
	registry := map[catalog.ObjectID][][32]byte{
		objX: digests(blocksX),
	}
	oracle := func(o catalog.ObjectID) ([][32]byte, bool) {
		d, ok := registry[o]
		return d, ok
	}
	med, err := mediator.NewShard(tr, "mem://mediator", oracle, mediator.ShardOpts{})
	if err != nil {
		return err
	}
	defer med.Close()

	const peerA, peerM, peerC core.PeerID = 1, 2, 3
	fmt.Println("Scenario: A has x and wants y; C has y and wants x; M claims")
	fmt.Println("to have both and inserts itself into two exchanges.")
	fmt.Println()

	// A seals its blocks of x for its supposed exchange partner M, and
	// escrows its key for exchange 7.
	var keyA [16]byte
	copy(keyA[:], "secret-key-of-A.")
	sealed := make([]protocol.Block, len(blocksX))
	for i, b := range blocksX {
		enc, err := mediator.Seal(keyA, peerA, peerM, objX, uint32(i), b)
		if err != nil {
			return err
		}
		sealed[i] = protocol.Block{Object: objX, Index: uint32(i), Origin: peerA, Recipient: peerM, Encrypted: true, Payload: enc}
	}
	escrow, err := medclient.New(medclient.Config{Transport: tr, Seeds: []string{"mem://mediator"}})
	if err != nil {
		return err
	}
	defer escrow.Close()
	if err := escrow.Deposit(7, peerA, objX, keyA); err != nil {
		return err
	}
	// M also escrows a key, posing as the sender of x toward C.
	var keyM [16]byte
	copy(keyM[:], "key-of-cheater-M")
	if err := escrow.Deposit(7, peerM, objX, keyM); err != nil {
		return err
	}

	// M relays A's sealed blocks to C verbatim: it cannot decrypt them and
	// cannot rewrite the encrypted control headers.
	fmt.Println("M relays A's encrypted blocks of x to C and claims authorship.")
	clientC, err := medclient.New(medclient.Config{Transport: tr, Seeds: []string{"mem://mediator"}})
	if err != nil {
		return err
	}
	defer clientC.Close()
	if _, err := clientC.Verify(7, peerC, peerM, objX, sealed); err != nil {
		fmt.Printf("mediator verdict for C's audit of sender M: %v\n", err)
	} else {
		return fmt.Errorf("the middleman passed the audit — defense failed")
	}
	fmt.Printf("mediator has flagged M %d time(s)\n", med.Flagged(peerM))
	fmt.Println()

	// The honest direct exchange, by contrast, completes: A seals for C,
	// C's audit passes, the key is released, and C decrypts.
	fmt.Println("A and C now trade directly (exchange 8).")
	sealedForC := make([]protocol.Block, len(blocksX))
	for i, b := range blocksX {
		enc, err := mediator.Seal(keyA, peerA, peerC, objX, uint32(i), b)
		if err != nil {
			return err
		}
		sealedForC[i] = protocol.Block{Object: objX, Index: uint32(i), Origin: peerA, Recipient: peerC, Encrypted: true, Payload: enc}
	}
	if err := escrow.Deposit(8, peerA, objX, keyA); err != nil {
		return err
	}
	key, err := clientC.Verify(8, peerC, peerA, objX, sealedForC)
	if err != nil {
		return fmt.Errorf("honest exchange failed the audit: %w", err)
	}
	for i, sb := range sealedForC {
		_, _, plain, err := mediator.Open(key, objX, sb.Index, sb.Payload)
		if err != nil {
			return err
		}
		fmt.Printf("C decrypted block %d: %q\n", i, plain)
	}
	fmt.Println("\nDirect exchange verified and decrypted; the middleman got nothing.")
	_ = objY
	return nil
}

func digests(blocks [][]byte) [][32]byte {
	out := make([][32]byte, len(blocks))
	for i, b := range blocks {
		out[i] = sha256.Sum256(b)
	}
	return out
}
