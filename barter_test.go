package barter

import (
	"math"
	"testing"
	"time"
)

func TestConfigsValid(t *testing.T) {
	for name, cfg := range map[string]Config{
		"default": DefaultConfig(),
		"paper":   PaperConfig(),
		"quick":   QuickConfig(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s config invalid: %v", name, err)
		}
	}
}

func TestSimulationThroughFacade(t *testing.T) {
	cfg := QuickConfig()
	cfg.Duration = 10_000
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedSharing == 0 {
		t.Fatal("facade run completed nothing")
	}
	if math.IsNaN(res.MeanDownloadMin(true)) {
		t.Fatal("no sharing download time")
	}
}

func TestExperimentRegistryThroughFacade(t *testing.T) {
	if len(Experiments()) != 15 {
		t.Fatalf("got %d experiments, want 15", len(Experiments()))
	}
	if _, ok := ExperimentByID("fig4"); !ok {
		t.Fatal("fig4 missing")
	}
	if _, ok := ExperimentByID("bogus"); ok {
		t.Fatal("bogus experiment found")
	}
}

func TestRingSearchThroughFacade(t *testing.T) {
	tree := BuildTree(1, []IRQEntry{{Requester: 2, Object: 10}}, MaxRingDefault)
	wants := []Want{{Object: 20, Providers: []PeerID{2}}}
	ring, wi, _, ok := FindRing(tree, wants, PolicyPairwise)
	if !ok || wi != 0 || ring.Size() != 2 {
		t.Fatalf("facade ring search: ok=%v wi=%d ring=%v", ok, wi, ring)
	}
}

func TestLiveNodeThroughFacade(t *testing.T) {
	tr := NewMemTransport()
	server, err := NewNode(NodeConfig{ID: 1, Transport: tr, Share: true, BlockSize: 512,
		TickInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := NewNode(NodeConfig{ID: 2, Transport: tr, Share: true, BlockSize: 512,
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
	ch := client.Download(7, map[PeerID]string{1: server.Addr()})
	if err := WaitDownload(ch, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := client.Object(7); len(got) != len(data) {
		t.Fatalf("downloaded %d bytes, want %d", len(got), len(data))
	}
}

func TestMediatorThroughFacade(t *testing.T) {
	tr := NewMemTransport()
	med, err := NewMediator(tr, "mem://facade-mediator", func(ObjectID) ([][32]byte, bool) {
		return nil, false
	})
	if err != nil {
		t.Fatal(err)
	}
	med.Close()
}
