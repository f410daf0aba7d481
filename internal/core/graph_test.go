package core

import (
	"testing"

	"barter/internal/catalog"
	"barter/internal/rng"
)

// graphOf adapts an explicit adjacency map to a Graph.
func graphOf(adj map[PeerID][]Edge) Graph {
	return Graph{Adj: func(p PeerID, _ int) []Edge { return adj[p] }}
}

func TestGraphPairwise(t *testing.T) {
	g := graphOf(map[PeerID][]Edge{
		1: {{Peer: 2, Object: 10}},
	})
	ring, wi, _, ok := g.FindRing(1, []Want{wantOf(20, 2)}, PolicyPairwise)
	if !ok || ring.Size() != 2 || wi != 0 {
		t.Fatalf("pairwise not found: ok=%v ring=%v", ok, ring)
	}
	if ring.Members[0] != (Member{Peer: 1, Gives: 10}) || ring.Members[1] != (Member{Peer: 2, Gives: 20}) {
		t.Fatalf("ring = %v", ring)
	}
}

func TestGraphThreeWay(t *testing.T) {
	// 2 requested o10 from 1; 3 requested o11 from 2; 3 provides o99.
	g := graphOf(map[PeerID][]Edge{
		1: {{Peer: 2, Object: 10}},
		2: {{Peer: 3, Object: 11}},
	})
	ring, _, _, ok := g.FindRing(1, []Want{wantOf(99, 3)}, Policy2N)
	if !ok || ring.Size() != 3 {
		t.Fatalf("3-way not found: ok=%v ring=%v", ok, ring)
	}
	want := []Member{{Peer: 1, Gives: 10}, {Peer: 2, Gives: 11}, {Peer: 3, Gives: 99}}
	for i, m := range ring.Members {
		if m != want[i] {
			t.Fatalf("member %d = %+v, want %+v", i, m, want[i])
		}
	}
}

func TestGraphShortVsLong(t *testing.T) {
	// Both a pairwise (via 4) and a 3-way (via 2 -> 3) are available.
	g := graphOf(map[PeerID][]Edge{
		1: {{Peer: 2, Object: 10}, {Peer: 4, Object: 12}},
		2: {{Peer: 3, Object: 11}},
	})
	wants := []Want{wantOf(99, 3, 4)}
	short, _, _, ok := g.FindRing(1, wants, Policy2N)
	if !ok || short.Size() != 2 || short.Members[1].Peer != 4 {
		t.Fatalf("ShortFirst = %v", short)
	}
	long, _, _, ok := g.FindRing(1, wants, PolicyN2)
	if !ok || long.Size() != 3 || long.Members[2].Peer != 3 {
		t.Fatalf("LongFirst = %v", long)
	}
}

func TestGraphFindRingVia(t *testing.T) {
	g := graphOf(map[PeerID][]Edge{
		1: {{Peer: 2, Object: 10}, {Peer: 4, Object: 12}},
	})
	wants := []Want{wantOf(99, 2, 4)}
	// Restricting to the edge via 4 must ignore the (earlier) edge via 2.
	ring, _, _, ok := g.FindRingVia(1, Edge{Peer: 4, Object: 12}, wants, Policy2N)
	if !ok || ring.Members[1].Peer != 4 {
		t.Fatalf("FindRingVia = %v", ring)
	}
}

func TestGraphRespectsBudget(t *testing.T) {
	// Wide fanout: provider hidden behind many nodes.
	adj := map[PeerID][]Edge{}
	for i := PeerID(2); i < 100; i++ {
		adj[1] = append(adj[1], Edge{Peer: i, Object: catalog.ObjectID(i)})
	}
	adj[1] = append(adj[1], Edge{Peer: 200, Object: 200})
	g := Graph{Adj: func(p PeerID, _ int) []Edge { return adj[p] }, Budget: 10}
	if _, _, stats, ok := g.FindRing(1, []Want{wantOf(99, 200)}, Policy2N); ok {
		t.Fatal("found ring beyond budget")
	} else if stats.NodesVisited > 10 {
		t.Fatalf("visited %d nodes, budget 10", stats.NodesVisited)
	}
}

func TestGraphRespectsFanout(t *testing.T) {
	adj := map[PeerID][]Edge{
		1: {{Peer: 2, Object: 2}, {Peer: 3, Object: 3}, {Peer: 4, Object: 4}},
	}
	g := Graph{Adj: func(p PeerID, _ int) []Edge { return adj[p] }, Fanout: 2}
	// Peer 4 is beyond the fanout cap.
	if _, _, _, ok := g.FindRing(1, []Want{wantOf(99, 4)}, Policy2N); ok {
		t.Fatal("fanout cap ignored")
	}
	if _, _, _, ok := g.FindRing(1, []Want{wantOf(99, 3)}, Policy2N); !ok {
		t.Fatal("in-fanout provider missed")
	}
}

func TestGraphCycleInAdjacencyTerminates(t *testing.T) {
	// 2 requested from 1, 1 requested from 2 (a mutual request cycle), and
	// nobody provides anything: search must terminate without a ring.
	g := graphOf(map[PeerID][]Edge{
		1: {{Peer: 2, Object: 10}},
		2: {{Peer: 1, Object: 20}},
	})
	if _, _, _, ok := g.FindRing(1, []Want{wantOf(99, 77)}, Policy2N); ok {
		t.Fatal("found phantom ring")
	}
	if _, _, _, ok := g.FindRing(1, []Want{wantOf(99, 77)}, PolicyN2); ok {
		t.Fatal("found phantom ring (deep-first)")
	}
}

func TestGraphSelfProviderSkipped(t *testing.T) {
	// The only "provider" is the root itself via a request cycle.
	g := graphOf(map[PeerID][]Edge{
		1: {{Peer: 2, Object: 10}},
		2: {{Peer: 1, Object: 20}},
	})
	for _, pol := range []Policy{Policy2N, PolicyN2} {
		if _, _, _, ok := g.FindRing(1, []Want{wantOf(99, 1)}, pol); ok {
			t.Fatalf("%v: ring through the root itself", pol)
		}
	}
}

// irqWorld is a randomly generated request world used to cross-check the
// graph search against the tree search.
type irqWorld struct {
	adj map[PeerID][]Edge
}

func randomWorld(r *rng.RNG, peers int) *irqWorld {
	w := &irqWorld{adj: make(map[PeerID][]Edge)}
	for p := 0; p < peers; p++ {
		for k := 0; k < r.Intn(3); k++ {
			q := PeerID(r.Intn(peers))
			if q == PeerID(p) {
				continue
			}
			w.adj[PeerID(p)] = append(w.adj[PeerID(p)], Edge{Peer: q, Object: catalog.ObjectID(r.Intn(100))})
		}
	}
	return w
}

// denseWorld is a request world whose every peer has 3–8 in-edges, so a
// depth-first search under PolicyN2 reaches its depth limit from almost any
// root and most of its visits are depth-limit leaves.
func denseWorld(r *rng.RNG, peers int) *irqWorld {
	w := &irqWorld{adj: make(map[PeerID][]Edge)}
	for p := 0; p < peers; p++ {
		for k := 3 + r.Intn(6); k > 0; k-- {
			q := PeerID(r.Intn(peers))
			if q == PeerID(p) {
				continue
			}
			w.adj[PeerID(p)] = append(w.adj[PeerID(p)], Edge{Peer: q, Object: catalog.ObjectID(r.Intn(100))})
		}
	}
	return w
}

// tree materializes the unfolded request tree rooted at root (as the live
// protocol would build it from attached request trees), pruned to maxDepth.
func (w *irqWorld) tree(root PeerID, maxDepth int) *Tree {
	t := &Tree{Root: root}
	var build func(p PeerID, at int32, depth int)
	build = func(p PeerID, at int32, depth int) {
		if depth > maxDepth {
			return
		}
		for _, e := range w.adj[p] {
			// The unfolding of a cyclic graph repeats peers; a ring never
			// does, so the tree may contain them freely.
			t.Nodes = append(t.Nodes, TreeNode{Peer: e.Peer, Object: e.Object, Parent: at})
			build(e.Peer, int32(len(t.Nodes)-1), depth+1)
		}
	}
	build(root, -1, 2)
	return t
}

// TestPropertyGraphMatchesTreeSearch cross-checks a search of the world with
// a search of its unfolded request tree: projecting the tree back onto
// request edges must lose none within reach, so both agree on whether a ring
// exists and on its size (members may differ on ties).
func TestPropertyGraphMatchesTreeSearch(t *testing.T) {
	r := rng.New(99)
	for iter := 0; iter < 400; iter++ {
		w := randomWorld(r, 12)
		g := Graph{Adj: func(p PeerID, _ int) []Edge { return w.adj[p] }}
		root := PeerID(r.Intn(12))
		tree := w.tree(root, 5)
		wants := []Want{{
			Object:    500,
			Providers: []PeerID{PeerID(r.Intn(12)), PeerID(r.Intn(12))},
		}}
		wants[0].Providers = withoutPeer(wants[0].Providers, root) // the root cannot close its own ring
		for _, pol := range []Policy{PolicyPairwise, Policy2N} {
			gr, _, _, gok := g.FindRing(root, wants, pol)
			tr, _, _, tok := FindRing(tree, wants, pol)
			if gok != tok {
				t.Fatalf("iter %d %v: graph ok=%v tree ok=%v\nadj=%v", iter, pol, gok, tok, w.adj)
			}
			if gok && gr.Size() != tr.Size() {
				t.Fatalf("iter %d %v: graph size %d, tree size %d", iter, pol, gr.Size(), tr.Size())
			}
			if gok {
				if err := gr.Validate(); err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
				// The ring must follow real graph edges.
				for i := 1; i < gr.Size(); i++ {
					found := false
					for _, e := range w.adj[gr.Members[i-1].Peer] {
						if e.Peer == gr.Members[i].Peer && e.Object == gr.Members[i-1].Gives {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("iter %d: ring edge %d not in graph", iter, i)
					}
				}
			}
		}
	}
}

func TestPropertyLongFirstAtLeastShortFirst(t *testing.T) {
	r := rng.New(123)
	for iter := 0; iter < 300; iter++ {
		w := randomWorld(r, 10)
		g := Graph{Adj: func(p PeerID, _ int) []Edge { return w.adj[p] }}
		root := PeerID(r.Intn(10))
		wants := []Want{{
			Object:    500,
			Providers: []PeerID{PeerID(r.Intn(10))},
		}}
		wants[0].Providers = withoutPeer(wants[0].Providers, root)
		rs, _, _, okS := g.FindRing(root, wants, Policy2N)
		rl, _, _, okL := g.FindRing(root, wants, PolicyN2)
		// DFS and BFS can disagree on reachability only via budget; with the
		// default budget on tiny worlds both see everything.
		if okS != okL {
			t.Fatalf("iter %d: short ok=%v long ok=%v", iter, okS, okL)
		}
		if okS && rl.Size() < rs.Size() {
			t.Fatalf("iter %d: LongFirst ring %d smaller than ShortFirst %d", iter, rl.Size(), rs.Size())
		}
	}
}

// BenchmarkGraphFindRing times one search per root over a dense world, where
// the depth-first search reaches its depth limit and most of its visits are
// depth-limit leaves; the breadth-first one stops at the shallowest ring.
func BenchmarkGraphFindRing(b *testing.B) {
	w := denseWorld(rng.New(5), 100)
	wants := []Want{wantOf(500, 42), wantOf(501, 77)}
	for _, bc := range []struct {
		name string
		pol  Policy
	}{{"Policy2N", Policy2N}, {"PolicyN2", PolicyN2}} {
		b.Run(bc.name, func(b *testing.B) {
			g := Graph{Adj: func(p PeerID, _ int) []Edge { return w.adj[p] }, Scratch: NewSearchScratch(100)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.FindRing(PeerID(i%100), wants, bc.pol)
			}
		})
	}
}
