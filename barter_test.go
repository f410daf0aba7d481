package barter

// End-to-end smoke tests across the packages the commands wire together:
// one quick simulation, the experiment registry, a ring search, a live
// two-node download and a mediator start/stop.

import (
	"math"
	"testing"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/experiment"
	"barter/internal/mediator"
	"barter/internal/node"
	"barter/internal/sim"
	"barter/internal/transport"
)

func TestSimulationThroughFacade(t *testing.T) {
	cfg := experiment.QuickBase()
	cfg.Duration = 10_000
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	completedSharing := 0
	for _, c := range res.Classes {
		if c.Share {
			completedSharing += c.Completed
		}
	}
	if completedSharing == 0 {
		t.Fatal("quick run completed nothing")
	}
	if math.IsNaN(res.MeanDownloadMin(true)) {
		t.Fatal("no sharing download time")
	}
}

func TestExperimentRegistryThroughFacade(t *testing.T) {
	if len(experiment.All()) != 15 {
		t.Fatalf("got %d experiments, want 15", len(experiment.All()))
	}
	if _, ok := experiment.ByID("fig4"); !ok {
		t.Fatal("fig4 missing")
	}
	if _, ok := experiment.ByID("bogus"); ok {
		t.Fatal("bogus experiment found")
	}
}

func TestRingSearchThroughFacade(t *testing.T) {
	tree := core.BuildTree(1, []core.IRQEntry{{Requester: 2, Object: 10}}, core.DefaultMaxRing)
	wants := []core.Want{{Object: 20, Providers: []core.PeerID{2}}}
	ring, wi, _, ok := core.FindRing(tree, wants, core.PolicyPairwise)
	if !ok || wi != 0 || ring.Size() != 2 {
		t.Fatalf("ring search: ok=%v wi=%d ring=%v", ok, wi, ring)
	}
}

func TestLiveNodeThroughFacade(t *testing.T) {
	tr := transport.NewMem()
	server, err := node.New(node.Config{ID: 1, Transport: tr, Share: true, BlockSize: 512,
		TickInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := node.New(node.Config{ID: 2, Transport: tr, Share: true, BlockSize: 512,
		TickInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	server.AddObject(7, data)
	ch := client.Download(7, map[core.PeerID]string{1: server.Addr()})
	if err := node.WaitFor(ch, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := client.Object(7); len(got) != len(data) {
		t.Fatalf("downloaded %d bytes, want %d", len(got), len(data))
	}
}

func TestMediatorThroughFacade(t *testing.T) {
	tr := transport.NewMem()
	med, err := mediator.NewShard(tr, "mem://facade-mediator", func(catalog.ObjectID) ([][32]byte, bool) {
		return nil, false
	}, mediator.ShardOpts{})
	if err != nil {
		t.Fatal(err)
	}
	med.Close()
}
