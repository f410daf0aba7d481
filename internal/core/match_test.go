package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"barter/internal/catalog"
	"barter/internal/rng"
)

// withoutPeer returns ps with every occurrence of p removed.
func withoutPeer(ps []PeerID, p PeerID) []PeerID {
	return slices.DeleteFunc(ps, func(q PeerID) bool { return q == p })
}

// scanMatch is the reference for SearchScratch.match: the want-by-want
// membership scan the stamped table replaced, counting every test it makes.
func scanMatch(p PeerID, wants []Want, stats *SearchStats) int {
	for i, w := range wants {
		stats.WantsChecked++
		if slices.Contains(w.Providers, p) {
			return i
		}
	}
	return -1
}

// refSearch is a plain reference ring search: Graph.search's traversal
// (breadth-first for the shallow policies, depth-first tracking the deepest
// candidate for LongFirst, same budget and fanout rules) written with maps
// and scanMatch, and none of the scratch machinery.
func refSearch(g Graph, root PeerID, first *Edge, wants []Want, pol Policy) (*Ring, int, SearchStats, bool) {
	var stats SearchStats
	if !pol.SearchesExchanges() || len(wants) == 0 {
		return nil, 0, stats, false
	}
	limit, budget := pol.Limit(), g.budget()
	frontier := g.edges(root)
	if first != nil {
		frontier = []Edge{*first}
	}
	ringOf := func(path []Edge, want int) *Ring {
		ring := &Ring{Members: []Member{{Peer: root, Gives: path[0].Object}}}
		for i := 0; i < len(path)-1; i++ {
			ring.Members = append(ring.Members, Member{Peer: path[i].Peer, Gives: path[i+1].Object})
		}
		ring.Members = append(ring.Members, Member{Peer: path[len(path)-1].Peer, Gives: wants[want].Object})
		return ring
	}
	visited := map[PeerID]bool{root: true}

	if pol.Kind == LongFirst {
		var best, path []Edge
		bestWant := -1
		var walk func(e Edge, depth int) bool
		walk = func(e Edge, depth int) bool {
			if depth > limit || visited[e.Peer] || stats.NodesVisited >= budget {
				return false
			}
			stats.NodesVisited++
			path = append(path, e)
			visited[e.Peer] = true
			abort := false
			if w := scanMatch(e.Peer, wants, &stats); w >= 0 {
				stats.Candidates++
				if bestWant < 0 || len(path) > len(best) {
					best, bestWant = slices.Clone(path), w
				}
				abort = depth == limit
			}
			if depth < limit {
				for _, c := range g.edges(e.Peer) {
					if walk(c, depth+1) {
						abort = true
						break
					}
				}
			}
			visited[e.Peer] = false
			path = path[:len(path)-1]
			return abort
		}
		for _, e := range frontier {
			if walk(e, 2) {
				break
			}
		}
		if bestWant < 0 {
			return nil, 0, stats, false
		}
		return ringOf(best, bestWant), bestWant, stats, true
	}

	type node struct {
		path  []Edge
		depth int
	}
	var queue []node
	// visit returns the ring the pushed node closes, if any.
	visit := func(e Edge, parent []Edge, depth int) (*Ring, int) {
		if visited[e.Peer] || stats.NodesVisited >= budget {
			return nil, -1
		}
		visited[e.Peer] = true
		stats.NodesVisited++
		path := append(slices.Clone(parent), e)
		queue = append(queue, node{path: path, depth: depth})
		if w := scanMatch(e.Peer, wants, &stats); w >= 0 {
			stats.Candidates++
			return ringOf(path, w), w
		}
		return nil, -1
	}
	for _, e := range frontier {
		if ring, w := visit(e, nil, 2); ring != nil {
			return ring, w, stats, true
		}
	}
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		if n.depth >= limit {
			continue
		}
		for _, e := range g.edges(n.path[len(n.path)-1].Peer) {
			if ring, w := visit(e, n.path, n.depth+1); ring != nil {
				return ring, w, stats, true
			}
		}
	}
	return nil, 0, stats, false
}

// assertSameSearch runs one search through Graph and through refSearch and
// compares ring, chosen want and every SearchStats field.
func assertSameSearch(t *testing.T, label string, g Graph, root PeerID, first *Edge, wants []Want, pol Policy) {
	t.Helper()
	var (
		ring *Ring
		want int
		st   SearchStats
		ok   bool
	)
	if first != nil {
		ring, want, st, ok = g.FindRingVia(root, *first, wants, pol)
	} else {
		ring, want, st, ok = g.FindRing(root, wants, pol)
	}
	rring, rwant, rst, rok := refSearch(g, root, first, wants, pol)
	if ok != rok || want != rwant || !reflect.DeepEqual(ring, rring) {
		t.Fatalf("%s %v: got ring %v want %d ok=%v, reference ring %v want %d ok=%v\nwants=%v",
			label, pol, ring, want, ok, rring, rwant, rok, wants)
	}
	if st.NodesVisited != rst.NodesVisited || st.WantsChecked != rst.WantsChecked || st.Candidates != rst.Candidates {
		t.Fatalf("%s %v: stats %+v, reference %+v\nwants=%v", label, pol, st, rst, wants)
	}
}

// TestStampedMatchEqualsScan is the differential test for the provider ->
// want table: over random request graphs and want lists, a search that reads
// the stamped array must return the same ring, close on the same want and
// report the same SearchStats as one that scans the wants at every node — with
// and without a scratch, with a scratch too small for the ids it meets, with
// providers shared between wants, duplicated within one, absent altogether or
// outside the graph, and under tight budgets and fanouts.
func TestStampedMatchEqualsScan(t *testing.T) {
	r := rng.New(21)
	pols := []Policy{PolicyPairwise, Policy2N, PolicyN2, {Kind: LongFirst, MaxRing: 3}, {Kind: ShortFirst, MaxRing: 4}}
	shared := NewSearchScratch(4) // far smaller than the ids below: the grow path
	for iter := 0; iter < 600; iter++ {
		peers := 6 + r.Intn(40)
		w := randomWorld(r, peers)
		g := Graph{Adj: func(p PeerID, _ int) []Edge { return w.adj[p] }}
		switch iter % 3 {
		case 1:
			g.Scratch = shared // one scratch across many searches: the epochs
		case 2:
			g.Scratch = NewSearchScratch(peers)
		}
		if r.Intn(3) == 0 {
			g.Budget = 1 + r.Intn(12)
		}
		if r.Intn(3) == 0 {
			g.Fanout = 1 + r.Intn(2)
		}
		wants := make([]Want, r.Intn(5))
		for i := range wants {
			wants[i].Object = catalog.ObjectID(500 + i)
			for k := r.Intn(5); k > 0; k-- { // zero leaves an empty provider list
				// Ids up to twice the world: some providers are in no queue.
				wants[i].Providers = append(wants[i].Providers, PeerID(r.Intn(2*peers)))
			}
			if i > 0 && len(wants[i-1].Providers) > 0 && r.Intn(2) == 0 {
				// A provider of the previous want as well: the earlier want wins.
				wants[i].Providers = append(wants[i].Providers, wants[i-1].Providers[0])
			}
		}
		root := PeerID(r.Intn(peers))
		var first *Edge
		if es := w.adj[root]; len(es) > 0 && r.Intn(2) == 0 {
			first = &es[r.Intn(len(es))]
		}
		for _, pol := range pols {
			assertSameSearch(t, "random world", g, root, first, wants, pol)
		}
	}
}

// TestDepthLimitLevelEqualsReference is the differential test for the last
// level of the traversal: in dense worlds, with budgets up to 400 and
// fanouts up to 3 (or unlimited), budget cuts, marks, candidates and aborts
// land among the depth-limit nodes, and the search must still return the
// reference's ring, want and SearchStats.
func TestDepthLimitLevelEqualsReference(t *testing.T) {
	r := rng.New(37)
	pols := []Policy{PolicyN2, Policy2N, {Kind: LongFirst, MaxRing: 3}, {Kind: LongFirst, MaxRing: 4}, PolicyPairwise}
	shared := NewSearchScratch(4)
	limitRings, budgetCuts := 0, 0
	for iter := 0; iter < 800; iter++ {
		peers := 20 + r.Intn(21)
		w := denseWorld(r, peers)
		g := Graph{
			Adj:    func(p PeerID, _ int) []Edge { return w.adj[p] },
			Budget: 1 + r.Intn(400),
			Fanout: r.Intn(4), // 0: unlimited
		}
		if iter%2 == 1 {
			g.Scratch = shared
		}
		wants := make([]Want, 1+r.Intn(4))
		for i := range wants {
			wants[i].Object = catalog.ObjectID(500 + i)
			for k := r.Intn(4); k > 0; k-- {
				// Ids up to three times the world: most providers are in no
				// queue, so many searches run until the budget cuts them.
				wants[i].Providers = append(wants[i].Providers, PeerID(r.Intn(3*peers)))
			}
		}
		root := PeerID(r.Intn(peers))
		var first *Edge
		if es := w.adj[root]; len(es) > 0 && r.Intn(4) == 0 {
			first = &es[r.Intn(len(es))]
		}
		for _, pol := range pols {
			assertSameSearch(t, "dense world", g, root, first, wants, pol)
		}
		ring, _, st, ok := g.FindRing(root, wants, PolicyN2)
		if ok && ring.Size() == PolicyN2.Limit() {
			limitRings++
		}
		if st.NodesVisited == g.Budget {
			budgetCuts++
		}
	}
	// The worlds must exercise what the test is for.
	if limitRings < 100 || budgetCuts < 100 {
		t.Fatalf("depth-limit rings %d, budget cuts %d: the worlds are too sparse", limitRings, budgetCuts)
	}
}

// TestStampedMatchCases pins the named corners of the provider -> want table.
func TestStampedMatchCases(t *testing.T) {
	// 2 and 3 queue at 1; 4 queues at 2; 900 queues at 3.
	adj := map[PeerID][]Edge{
		1: {{Peer: 2, Object: 10}, {Peer: 3, Object: 11}},
		2: {{Peer: 4, Object: 12}},
		3: {{Peer: 900, Object: 13}},
	}
	cases := []struct {
		name     string
		wants    []Want
		wantIdx  int
		wantSize int // 0: no ring
	}{
		{"provider shared by two wants closes the earlier", []Want{wantOf(50, 9), wantOf(51, 3, 2), wantOf(52, 2)}, 1, 2},
		{"empty provider list matches nothing", []Want{wantOf(50)}, 0, 0},
		{"empty list before a real one", []Want{wantOf(50), wantOf(51, 4)}, 1, 3},
		{"duplicate ids within a want", []Want{wantOf(50, 4, 4, 4)}, 0, 3},
		{"id beyond the scratch grows it", []Want{wantOf(50, 900)}, 0, 3},
	}
	for _, tc := range cases {
		for _, sc := range []*SearchScratch{nil, NewSearchScratch(0), NewSearchScratch(3)} {
			g := Graph{Adj: func(p PeerID, _ int) []Edge { return adj[p] }, Scratch: sc}
			ring, wi, _, ok := g.FindRing(1, tc.wants, Policy2N)
			if ok != (tc.wantSize > 0) || (ok && (wi != tc.wantIdx || ring.Size() != tc.wantSize)) {
				t.Errorf("%s (scratch %v): ring %v want %d ok=%v; expected want %d size %d",
					tc.name, sc != nil, ring, wi, ok, tc.wantIdx, tc.wantSize)
			}
			for _, pol := range []Policy{PolicyPairwise, Policy2N, PolicyN2} {
				assertSameSearch(t, tc.name, g, 1, nil, tc.wants, pol)
			}
		}
	}
}

// TestScratchEpochWrap drives the generation counter over its wrap: stamps
// written in the last epochs before it must not read as current after it.
func TestScratchEpochWrap(t *testing.T) {
	adj := map[PeerID][]Edge{1: {{Peer: 2, Object: 10}}, 2: {{Peer: 3, Object: 11}}}
	sc := NewSearchScratch(4)
	g := Graph{Adj: func(p PeerID, _ int) []Edge { return adj[p] }, Scratch: sc}
	sc.gen = math.MaxUint32 - 2
	for i := 0; i < 6; i++ {
		// Alternate a want that 3 provides with one nobody in reach provides:
		// a stale stamp for 3 would turn the second into a phantom ring.
		assertSameSearch(t, "provided", g, 1, nil, []Want{wantOf(50, 3)}, Policy2N)
		assertSameSearch(t, "unprovided", g, 1, nil, []Want{wantOf(51, 7)}, Policy2N)
		assertSameSearch(t, "unprovided deep-first", g, 1, nil, []Want{wantOf(51, 7)}, PolicyN2)
	}
	if sc.gen >= math.MaxUint32-2 || sc.gen == 0 {
		t.Fatalf("generation %d: the counter did not wrap", sc.gen)
	}
}

// TestTreeFindRingWantAccounting pins the same two rules on FindRing, which
// relabels the tree's peers and drops the providers absent from it before it
// searches: the earlier want still wins, want indices are the caller's, and
// WantsChecked is what the want-by-want scan over the caller's wants counts.
func TestTreeFindRingWantAccounting(t *testing.T) {
	tree := &Tree{Root: 1, Nodes: []TreeNode{
		{Peer: 2, Object: 10, Parent: -1},
		{Peer: 4, Object: 12, Parent: 0},
		{Peer: 3, Object: 11, Parent: -1},
	}}
	// 2 provides the second and the third want: the ring closes on the second
	// after two membership tests at the one node visited.
	ring, wi, st, ok := FindRing(tree, []Want{wantOf(50, 9), wantOf(51, 3, 2), wantOf(52, 2)}, Policy2N)
	if !ok || wi != 1 || ring.Size() != 2 || st != (SearchStats{NodesVisited: 1, WantsChecked: 2, Candidates: 1}) {
		t.Fatalf("shared provider: ring %v want %d ok=%v stats %+v", ring, wi, ok, st)
	}
	// Nobody provides anything: every node costs one test per want.
	_, _, st, ok = FindRing(tree, []Want{wantOf(50), wantOf(51, 77), wantOf(52)}, PolicyN2)
	if ok || st != (SearchStats{NodesVisited: 3, WantsChecked: 9}) {
		t.Fatalf("no provider in the tree: ok=%v stats %+v", ok, st)
	}
	// A hit at the last want of three costs three; the two misses before it
	// (2, then 4 under it) cost three each.
	_, wi, st, ok = FindRing(tree, []Want{wantOf(50), wantOf(51, 77), wantOf(52, 3)}, PolicyN2)
	if !ok || wi != 2 || st != (SearchStats{NodesVisited: 3, WantsChecked: 9, Candidates: 1}) {
		t.Fatalf("hit at the last want: want %d ok=%v stats %+v", wi, ok, st)
	}
}
