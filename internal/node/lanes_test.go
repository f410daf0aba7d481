package node

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
)

// The lane scheduler is one code path; a mediator only changes how a full
// lane is verified. Its tests therefore run one body over both deployments.
func forEachDeployment(t *testing.T, objSize int, body func(t *testing.T, mn *medNet)) {
	t.Run("unmediated", func(t *testing.T) { body(t, &medNet{testNet: newTestNet(t)}) })
	t.Run("mediated", func(t *testing.T) {
		mn := newMedNet(t, 2, objSize)
		body(t, mn)
		mn.assertHonestUnflagged()
	})
}

// waitUntil polls cond (which reads node state through the event loop) until
// it holds; tests use it to establish a premise before acting on it.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// quiet makes an origin send the first block of a granted lane and then
// nothing: the lane is carried, but never progresses.
func quiet(cfg *Config) { cfg.BlockDelay = time.Hour }

// TestStripedDownloadAcrossOrigins: three honest origins each carry one
// lane of the same object; the receiver verifies each lane against its own
// origin and lands the exact bytes.
func TestStripedDownloadAcrossOrigins(t *testing.T) {
	const size = 12 * 1024 // 12 blocks at the 1 KiB test block size
	forEachDeployment(t, size, func(t *testing.T, mn *medNet) {
		obj := catalog.ObjectID(4)
		data := payload(obj, size)
		providers := make(map[core.PeerID]string)
		for id := core.PeerID(1); id <= 3; id++ {
			srv := mn.spawnMediated(id, nil)
			srv.AddObject(obj, data)
			providers[id] = srv.Addr()
		}
		receiver := mn.spawnMediated(9, func(cfg *Config) { cfg.Stripe = 3 })

		ch := receiver.Download(obj, providers)
		if err := WaitFor(ch, testTimeout); err != nil {
			t.Fatal(err)
		}
		if got := receiver.Object(obj); !bytes.Equal(got, data) {
			t.Fatalf("downloaded %d bytes, content mismatch", len(got))
		}
		st := receiver.Stats()
		if st.StripesGranted < 3 {
			t.Fatalf("granted %d stripes, want >= 3", st.StripesGranted)
		}
		if mn.cluster != nil && st.MedVerifies < 3 {
			t.Fatalf("submitted %d audits, want one per stripe (>= 3)", st.MedVerifies)
		}
		if st.MedRejects != 0 || st.BlocksRejected != 0 {
			t.Fatalf("honest striped transfer produced %d audit rejects, %d block rejects", st.MedRejects, st.BlocksRejected)
		}
	})
}

// TestStripedCheaterReassigned: one corrupt origin among three; its lane
// fails verification (the audit rejects and the tier flags it, or its first
// plaintext block fails the digest), only its lane is taken back, and an
// honest origin that finished its own lane re-manifests to fill the freed
// one — the download still lands the exact bytes.
func TestStripedCheaterReassigned(t *testing.T) {
	const size = 12 * 1024
	forEachDeployment(t, size, func(t *testing.T, mn *medNet) {
		obj := catalog.ObjectID(6)
		data := payload(obj, size)
		cheater := mn.spawnMediated(1, func(cfg *Config) { cfg.Corrupt = true })
		cheater.AddObject(obj, data)
		honest := map[core.PeerID]string{}
		for id := core.PeerID(2); id <= 3; id++ {
			srv := mn.spawnMediated(id, nil)
			srv.AddObject(obj, data)
			honest[id] = srv.Addr()
		}
		receiver := mn.spawnMediated(9, func(cfg *Config) {
			cfg.Stripe = 3
			cfg.StallTicks = 5
		})
		dialRaw(mn.testNet, 7, receiver)
		dialRaw(mn.testNet, 8, receiver)

		// The premise: the cheater carries a lane. The honest origins are
		// handed over only once it does, so they can never fill every lane
		// between them first and get the cheater cancelled as surplus. The
		// two silent providers make k 3 and keep the download open meanwhile.
		ch := receiver.Download(obj, map[core.PeerID]string{1: cheater.Addr(), 7: "", 8: ""})
		waitUntil(t, "the cheater is granted a lane", func() bool { return receiver.Stats().StripesGranted >= 1 })
		receiver.Download(obj, honest)
		if err := WaitFor(ch, testTimeout); err != nil {
			t.Fatal(err)
		}
		if got := receiver.Object(obj); !bytes.Equal(got, data) {
			t.Fatal("content mismatch after recovering from the striped cheater")
		}
		st := receiver.Stats()
		if mn.cluster != nil {
			if mn.cluster.Flagged(1) == 0 {
				t.Fatal("mediator tier never flagged the corrupt origin")
			}
			if st.MedRejects == 0 {
				t.Fatal("receiver recorded no audit rejection")
			}
		} else if st.BlocksRejected == 0 {
			t.Fatal("receiver rejected no junk block")
		}
		if st.StripesReassigned == 0 {
			t.Fatal("the cheater's stripe was never reassigned")
		}
	})
}

// TestStripedStallRecovery: an origin goes quiet mid-lane without
// disconnecting. The receiver's per-lane stall timer takes the dead lane
// back within the stall timeout and the surviving origin completes it,
// without the surviving lane being disturbed.
func TestStripedStallRecovery(t *testing.T) {
	const size = 16 * 1024
	forEachDeployment(t, size, func(t *testing.T, mn *medNet) {
		obj := catalog.ObjectID(8)
		data := payload(obj, size)
		casualty := mn.spawnMediated(1, quiet)
		casualty.AddObject(obj, data)
		survivor := mn.spawnMediated(2, nil)
		survivor.AddObject(obj, data)
		receiver := mn.spawnMediated(9, func(cfg *Config) {
			cfg.Stripe = 2
			cfg.StallTicks = 5
		})
		dialRaw(mn.testNet, 8, receiver) // a silent provider (see rawPeer)

		// The premise: the casualty carries a lane. The survivor is handed
		// over only once it does (see TestStripedCheaterReassigned).
		ch := receiver.Download(obj, map[core.PeerID]string{1: casualty.Addr(), 8: ""})
		waitUntil(t, "the casualty is granted a lane", func() bool { return receiver.Stats().StripesGranted >= 1 })
		receiver.Download(obj, map[core.PeerID]string{2: survivor.Addr()})
		// Taken back while still connected, so by the stall timer. Then the
		// casualty leaves: it would otherwise keep answering the re-requests
		// and could win its lane back, quiet as ever, any number of times.
		waitUntil(t, "the stalled lane is taken back", func() bool { return receiver.Stats().StripesReassigned >= 1 })
		casualty.Close()
		if err := WaitFor(ch, testTimeout); err != nil {
			t.Fatalf("download did not recover from the mid-stripe stall: %v", err)
		}
		if got := receiver.Object(obj); !bytes.Equal(got, data) {
			t.Fatal("content mismatch after stall recovery")
		}
		if st := receiver.Stats(); st.StripesReassigned == 0 {
			t.Fatal("the quiet origin's stripe was never reassigned")
		}
	})
}

// TestDepartedOriginLaneReassignedOnDrop: when the origin carrying a lane
// disconnects, the lane goes back to the remaining providers at once — the
// recovery does not wait out the stall timer.
func TestDepartedOriginLaneReassignedOnDrop(t *testing.T) {
	const size = 8 * 1024
	forEachDeployment(t, size, func(t *testing.T, mn *medNet) {
		obj := catalog.ObjectID(11)
		data := payload(obj, size)
		casualty := mn.spawnMediated(1, quiet)
		casualty.AddObject(obj, data)
		survivor := mn.spawnMediated(2, nil)
		survivor.AddObject(obj, data)
		// A stall timeout of 50 s: only the drop can explain a recovery
		// inside the test's patience.
		receiver := mn.spawnMediated(9, func(cfg *Config) { cfg.StallTicks = 10_000 })

		// The casualty takes the single lane; the survivor, named second,
		// stands by and is asked only once the casualty has left.
		ch := receiver.Download(obj, map[core.PeerID]string{1: casualty.Addr()})
		waitUntil(t, "the casualty is granted the lane", func() bool { return receiver.Stats().StripesGranted == 1 })
		receiver.Download(obj, map[core.PeerID]string{2: survivor.Addr()})

		casualty.Close()
		if err := WaitFor(ch, 10*time.Second); err != nil {
			t.Fatalf("download did not recover from the departure: %v", err)
		}
		if got := receiver.Object(obj); !bytes.Equal(got, data) {
			t.Fatal("content mismatch after the departure")
		}
		if st := receiver.Stats(); st.StripesReassigned != 1 {
			t.Fatalf("lanes reassigned = %d, want exactly the departed origin's", st.StripesReassigned)
		}
		if served := survivor.Stats().RequestsServed; served != 1 {
			t.Fatalf("the survivor served %d sessions, want the one it was asked for", served)
		}
	})
}

// TestNoRedundantBlocks: a default (single-lane) download of four holders
// moves each block exactly once — it asks one holder, and the other three
// stand by.
func TestNoRedundantBlocks(t *testing.T) {
	const size = 16 * 1024
	tn := newTestNet(t)
	obj := catalog.ObjectID(12)
	data := payload(obj, size)
	providers := make(map[core.PeerID]string)
	var holders []*Node
	for id := core.PeerID(1); id <= 4; id++ {
		h := tn.spawn(id, nil)
		h.AddObject(obj, data)
		holders = append(holders, h)
		providers[id] = h.Addr()
	}
	receiver := tn.spawn(9, nil)
	if err := WaitFor(receiver.Download(obj, providers), testTimeout); err != nil {
		t.Fatal(err)
	}
	if got := receiver.Object(obj); !bytes.Equal(got, data) {
		t.Fatal("content mismatch")
	}
	sent := 0
	for _, h := range holders {
		sent += h.Stats().BlocksSent
	}
	st := receiver.Stats()
	if blocks := size / 1024; sent != blocks || st.BlocksReceived != blocks || st.BlocksRejected != 0 {
		t.Fatalf("%d blocks: holders sent %d, receiver took %d and rejected %d", blocks, sent, st.BlocksReceived, st.BlocksRejected)
	}
}

// TestOneProviderPerLane: a download of four holders asks as many of them
// as it has lanes, the first of its order, and the others stand by and serve
// nothing.
func TestOneProviderPerLane(t *testing.T) {
	const size = 16 * 1024
	ids := []core.PeerID{1, 2, 3, 4}
	for _, stripe := range []int{1, 3} {
		t.Run(fmt.Sprintf("stripe=%d", stripe), func(t *testing.T) {
			tn := newTestNet(t)
			obj := catalog.ObjectID(16)
			data := payload(obj, size)
			providers := make(map[core.PeerID]string)
			holders := make(map[core.PeerID]*Node)
			for _, id := range ids {
				holders[id] = tn.spawn(id, nil)
				holders[id].AddObject(obj, data)
				providers[id] = tn.addrOf(id)
			}
			// No stall timer: only the asked holders can serve.
			receiver := tn.spawn(9, func(c *Config) {
				c.Stripe = stripe
				c.StallTicks = 10_000
			})
			if err := WaitFor(receiver.Download(obj, providers), testTimeout); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(receiver.Object(obj), data) {
				t.Fatal("content mismatch")
			}
			// An asked holder may answer after the others have filled every
			// lane, so its count is waited for; a standby's is never sent.
			for i, id := range askOrder(9, obj, ids) {
				served := func() int { return holders[id].Stats().RequestsServed }
				if i >= stripe {
					if s := served(); s != 0 {
						t.Errorf("standby holder %d served %d sessions, want 0", id, s)
					}
					continue
				}
				waitUntil(t, fmt.Sprintf("asked holder %d serves", id), func() bool { return served() > 0 })
				if s := served(); stripe == 1 && s != 1 {
					t.Errorf("the one asked holder %d served %d sessions, want 1", id, s)
				}
			}
		})
	}
}

// TestRefusalAsksStandbyAtOnce: the provider first in the order holds
// nothing and refuses; the standby holder is asked in its place at once, not
// a stall window later.
func TestRefusalAsksStandbyAtOnce(t *testing.T) {
	tn := newTestNet(t)
	obj := catalog.ObjectID(17)
	data := payload(obj, 8*1024)
	order := askOrder(9, obj, []core.PeerID{1, 2})
	tn.spawn(order[0], nil) // holds nothing
	holder := tn.spawn(order[1], nil)
	holder.AddObject(obj, data)
	// A stall window of 50 s: only the refusal can explain the standby
	// being asked inside the test's patience.
	receiver := tn.spawn(9, func(c *Config) { c.StallTicks = 10_000 })
	ch := receiver.Download(obj, map[core.PeerID]string{order[0]: tn.addrOf(order[0]), order[1]: tn.addrOf(order[1])})
	if err := WaitFor(ch, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(receiver.Object(obj), data) {
		t.Fatal("content mismatch")
	}
	if served := holder.Stats().RequestsServed; served != 1 {
		t.Fatalf("the standby holder served %d sessions, want 1", served)
	}
}

// TestSilentProviderJoinedByStandby: the provider first in the order never
// answers, as one whose queue holds the request. After StallTicks without a
// manifest the download asks one standby besides, and completes from it.
func TestSilentProviderJoinedByStandby(t *testing.T) {
	const (
		stall = 5
		tick  = 10 * time.Millisecond
	)
	tn := newTestNet(t)
	obj := catalog.ObjectID(18)
	data := payload(obj, 8*1024)
	order := askOrder(9, obj, []core.PeerID{1, 2})
	holder := tn.spawn(order[1], nil)
	holder.AddObject(obj, data)
	receiver := tn.spawn(9, func(c *Config) {
		c.StallTicks = stall
		c.TickInterval = tick
	})
	dialRaw(tn, order[0], receiver)
	start := time.Now()
	ch := receiver.Download(obj, map[core.PeerID]string{order[0]: "", order[1]: tn.addrOf(order[1])})
	// Well inside the raw peer's watchdog, whose close would also ask the
	// standby.
	if err := WaitFor(ch, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < (stall-1)*tick {
		t.Fatalf("completed after %v, inside the stall window of %d ticks of %v", waited, stall, tick)
	}
	if !bytes.Equal(receiver.Object(obj), data) {
		t.Fatal("content mismatch")
	}
	if served := holder.Stats().RequestsServed; served != 1 {
		t.Fatalf("the standby holder served %d sessions, want 1", served)
	}
}

// TestStalledLaneAsksStandby: the one asked provider takes the lane and
// goes quiet. Each stall takes the lane back and asks one standby besides,
// so the holder standing by is asked and completes the download, however
// often the quiet origin wins the lane back in between.
func TestStalledLaneAsksStandby(t *testing.T) {
	tn := newTestNet(t)
	obj := catalog.ObjectID(20)
	data := payload(obj, 8*1024)
	order := askOrder(9, obj, []core.PeerID{1, 2})
	tn.spawn(order[0], quiet).AddObject(obj, data)
	holder := tn.spawn(order[1], nil)
	holder.AddObject(obj, data)
	receiver := tn.spawn(9, func(c *Config) { c.StallTicks = 5 })
	ch := receiver.Download(obj, map[core.PeerID]string{order[0]: tn.addrOf(order[0]), order[1]: tn.addrOf(order[1])})
	if err := WaitFor(ch, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(receiver.Object(obj), data) {
		t.Fatal("content mismatch")
	}
	if st := receiver.Stats(); st.StripesReassigned == 0 {
		t.Fatalf("the quiet origin's lane was never taken back: %+v", st)
	}
	if served := holder.Stats().RequestsServed; served == 0 {
		t.Fatal("the standby holder was never asked")
	}
}

// TestLaterProviderStandsBy: a provider named by a later Download call of
// the same object joins the order behind the others under the same rule. It
// is asked at once while the download has fewer asked providers than lanes,
// and stands by otherwise.
func TestLaterProviderStandsBy(t *testing.T) {
	const size = 8 * 1024
	obj := catalog.ObjectID(19)
	data := payload(obj, size)
	// start lists a silent raw provider, then names the holder in a second
	// call, with no stall timer to ask a standby.
	start := func(t *testing.T, stripe int) (holder, receiver *Node, raw *rawPeer, ch <-chan error) {
		tn := newTestNet(t)
		holder = tn.spawn(2, nil)
		holder.AddObject(obj, data)
		receiver = tn.spawn(9, func(c *Config) {
			c.Stripe = stripe
			c.StallTicks = 10_000
		})
		raw = dialRaw(tn, 8, receiver)
		ch = receiver.Download(obj, map[core.PeerID]string{8: ""})
		receiver.Download(obj, map[core.PeerID]string{2: tn.addrOf(2)})
		return holder, receiver, raw, ch
	}
	t.Run("stands by", func(t *testing.T) {
		holder, receiver, raw, ch := start(t, 1)
		var order []core.PeerID
		var asked int
		receiver.call(func() {
			dl := receiver.downloads[obj]
			order, asked = slices.Clone(dl.order), dl.asked
		})
		if !slices.Equal(order, []core.PeerID{8, 2}) || asked != 1 {
			t.Fatalf("order %v with %d asked, want [8 2] with the raw provider alone asked", order, asked)
		}
		raw.refuse()
		if err := WaitFor(ch, testTimeout); err != nil {
			t.Fatal(err)
		}
		if served := holder.Stats().RequestsServed; served != 1 {
			t.Fatalf("the holder served %d sessions, want 1", served)
		}
	})
	t.Run("asked for a free lane", func(t *testing.T) {
		// Two lanes and one asked provider: the holder is asked at once and
		// completes the download while the raw provider stays silent.
		_, receiver, _, ch := start(t, 2)
		if err := WaitFor(ch, testTimeout); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(receiver.Object(obj), data) {
			t.Fatal("content mismatch")
		}
	})
}

// TestRingPredecessorTakesLane: every lane of a download is carried by a
// plain origin when a ring feeding that download commits. The ring
// predecessor's session is not turned away as surplus: it takes the lane
// over, so the exchange — not the plain transfer — delivers the object
// (exchange priority, seen from the receiving side).
func TestRingPredecessorTakesLane(t *testing.T) {
	tn := newTestNet(t)
	ox, oy := catalog.ObjectID(100), catalog.ObjectID(200)
	dataX, dataY := payload(ox, 10_000), payload(oy, 20_000)
	// The receiver's stall timers are out of the picture: only the ring can
	// move the lane. Its own upload is paced, so the partner's want outlives
	// the receiver's and the ring is not dissolved under it ("one side
	// terminates first, when it completes its own download").
	receiver := tn.spawn(1, func(c *Config) { c.StallTicks = 10_000; c.BlockDelay = 5 * time.Millisecond })
	plain := tn.spawn(2, quiet)
	partner := tn.spawn(3, nil)
	receiver.AddObject(oy, dataY)
	plain.AddObject(ox, dataX)

	// The plain origin takes the single lane. Then the wants turn mutual:
	// the partner, holding X, asks the receiver for Y, and once that request
	// is queued the receiver is handed the partner as a provider of X.
	chX := receiver.Download(ox, map[core.PeerID]string{2: tn.addrOf(2)})
	waitUntil(t, "the plain origin is granted the lane", func() bool { return receiver.Stats().StripesGranted == 1 })
	partner.AddObject(ox, dataX)
	chY := partner.Download(oy, map[core.PeerID]string{1: tn.addrOf(1)})
	waitUntil(t, "the receiver serves the partner", func() bool { return receiver.Stats().RequestsServed == 1 })
	receiver.Download(ox, map[core.PeerID]string{3: tn.addrOf(3)})

	if err := WaitFor(chX, testTimeout); err != nil {
		t.Fatalf("receiver's download: %v", err)
	}
	if err := WaitFor(chY, testTimeout); err != nil {
		t.Fatalf("partner's download: %v", err)
	}
	if !bytes.Equal(receiver.Object(ox), dataX) || !bytes.Equal(partner.Object(oy), dataY) {
		t.Fatal("exchanged objects corrupted")
	}
	if st := receiver.Stats(); st.StripesReassigned != 1 || st.StripesGranted != 2 {
		t.Fatalf("the ring predecessor did not take the plain origin's lane over: %+v", st)
	}
	if partner.Stats().ExchangeBlocksSent == 0 {
		t.Fatalf("no exchange blocks flowed from the ring predecessor: %+v", partner.Stats())
	}
}

// TestStripedLanesOutwaitBusyHolder: one paced holder with a single upload
// slot, one listed provider that holds nothing, and four receivers striping
// over both. The empty provider refuses, so it leaves every set and k counts
// the holder alone. The three receivers that ask while the holder serves the
// first wait in its queue far longer than the stall window, and a wait in a
// live holder's queue is no failure: each completes on one lane of its own.
func TestStripedLanesOutwaitBusyHolder(t *testing.T) {
	const size = 16 * 1024
	tn := newTestNet(t)
	obj := catalog.ObjectID(13)
	data := payload(obj, size)
	holder := tn.spawn(1, func(c *Config) {
		c.UploadSlots = 1
		c.BlockDelay = 2 * time.Millisecond
	})
	holder.AddObject(obj, data)
	tn.spawn(2, nil) // listed by every receiver, holds nothing
	providers := map[core.PeerID]string{1: tn.addrOf(1), 2: tn.addrOf(2)}
	var receivers []*Node
	var waits []<-chan error
	for id := core.PeerID(3); id <= 6; id++ {
		r := tn.spawn(id, func(c *Config) {
			c.Stripe = 2
			c.StallTicks = 3
			c.TickInterval = 2 * time.Millisecond
		})
		receivers = append(receivers, r)
		waits = append(waits, r.Download(obj, providers))
		if id == 3 {
			waitUntil(t, "the holder serves the first receiver", func() bool { return holder.Stats().RequestsServed == 1 })
		}
	}
	for i, ch := range waits {
		r := receivers[i]
		if err := WaitFor(ch, 5*time.Second); err != nil {
			t.Fatalf("receiver %d: %v", r.ID(), err)
		}
		if !bytes.Equal(r.Object(obj), data) {
			t.Fatalf("receiver %d: content mismatch", r.ID())
		}
		if st := r.Stats(); i > 0 && st.StripesGranted != 1 {
			t.Fatalf("receiver %d, queued behind the first, granted %d lanes, want 1: %+v", r.ID(), st.StripesGranted, st)
		}
	}
}

// TestNoProgressRoundKeepsVerifiedLane: a download whose one lane has
// verified while the other stalls goes through rounds of StallTicks without
// a new block. The stalled lane is taken back; the verified one keeps its
// blocks. The receiver's own timer is out of the picture: the test drives
// its ticks.
func TestNoProgressRoundKeepsVerifiedLane(t *testing.T) {
	const (
		size  = 16 * 1024
		stall = 3
	)
	tn := newTestNet(t)
	obj := catalog.ObjectID(15)
	data := payload(obj, size)
	stalled := tn.spawn(1, quiet)
	stalled.AddObject(obj, data)
	holder := tn.spawn(2, nil)
	holder.AddObject(obj, data)
	receiver := tn.spawn(9, func(c *Config) {
		c.Stripe = 2
		c.StallTicks = stall
		c.TickInterval = time.Hour
	})
	raw := dialRaw(tn, 8, receiver) // a silent provider (see rawPeer)

	// The quiet origin takes lane 0. The holder, handed over once it has,
	// stands by until the raw provider refuses, and then takes lane 1.
	receiver.Download(obj, map[core.PeerID]string{1: tn.addrOf(1), 8: ""})
	waitUntil(t, "the quiet origin is granted a lane", func() bool { return receiver.Stats().StripesGranted == 1 })
	receiver.Download(obj, map[core.PeerID]string{2: tn.addrOf(2)})
	raw.refuse()
	waitUntil(t, "the holder's lane verifies", func() bool {
		ok := false
		receiver.call(func() {
			dl := receiver.downloads[obj]
			ok = dl != nil && dl.lanes[1].verified
		})
		return ok
	})

	// One turn of the loop: the holder, asked again for the freed lane,
	// cannot answer in between.
	var kept bool
	var reassigned int
	receiver.call(func() {
		dl := receiver.downloads[obj]
		for range 4 * stall {
			receiver.onTick()
		}
		kept = receiver.downloads[obj] == dl && dl.lanes != nil && dl.lanes[1].verified
		reassigned = receiver.stats.StripesReassigned
	})
	if !kept {
		t.Fatal("a no-progress round discarded the verified lane")
	}
	if reassigned != 1 {
		t.Fatalf("lanes reassigned = %d, want the stalled one alone", reassigned)
	}
}

// TestRefusedManifestFreesSlot: a receiver whose trusted digests count
// other blocks than a holder's manifest refuses the manifest, drops the
// holder and cancels its session. The holder was its one provider, so the
// download ends in ErrNoSource, and the holder's one upload slot serves the
// next requester.
func TestRefusedManifestFreesSlot(t *testing.T) {
	const size = 8 * 1024
	tn := newTestNet(t)
	obj := catalog.ObjectID(14)
	data := payload(obj, size)
	holder := tn.spawn(1, func(c *Config) { c.UploadSlots = 1 })
	holder.AddObject(obj, data)
	halved := trueDigests(data[:size/2], 1024)
	refuser := tn.spawn(2, func(c *Config) {
		c.StallTicks = 10_000 // no timer ends the refusing download
		c.TrustedDigests = func(o catalog.ObjectID) ([][32]byte, bool) { return halved, o == obj }
	})
	refused := refuser.Download(obj, map[core.PeerID]string{1: tn.addrOf(1)})
	if err := WaitFor(refused, 5*time.Second); !errors.Is(err, ErrNoSource) {
		t.Fatalf("download from a lone contradicting provider: %v, want ErrNoSource", err)
	}
	if holder.Stats().RequestsServed != 1 {
		t.Fatalf("the holder served %d sessions, want the refused one", holder.Stats().RequestsServed)
	}

	// The next requester asks once and waits: only a freed slot serves it.
	next := tn.spawn(3, func(c *Config) { c.StallTicks = 10_000 })
	if err := WaitFor(next.Download(obj, map[core.PeerID]string{1: tn.addrOf(1)}), 5*time.Second); err != nil {
		t.Fatalf("the next requester: %v", err)
	}
}
