package core

import "barter/internal/catalog"

// Edge is one in-edge of the request graph as seen from a serving peer: Peer
// requested Object from the peer whose adjacency list contains this edge.
type Edge struct {
	Peer   PeerID
	Object catalog.ObjectID
}

// DefaultSearchBudget bounds how many request-graph nodes one ring search may
// visit. The paper's Section V discusses exactly this cost concern (full
// request trees "may be prohibitive for peers with a large number of incoming
// requests"); real peers bound their search effort, and so do we.
const DefaultSearchBudget = 4096

// SearchScratch holds the reusable working memory of ring searches: the
// visited set and the provider -> want table as epoch-stamped dense arrays
// (cleared in O(1) by bumping the generation), the BFS node pool, and the DFS
// path buffers. One scratch serves any number of sequential searches; it is
// not safe for concurrent use. A nil scratch on Graph allocates one per search.
type SearchScratch struct {
	visited  []uint32    // epoch stamps indexed by PeerID
	provides []wantStamp // indexed by PeerID; see begin
	gen      uint32
	nodes    []bfsNode
	path     []Edge
	best     []Edge
	first1   [1]Edge
}

// wantStamp says wants[want] is the first want the peer provides in epoch gen.
type wantStamp struct {
	gen  uint32
	want int32
}

// NewSearchScratch returns a scratch pre-sized for peer ids below numPeers;
// it grows transparently if larger ids appear.
func NewSearchScratch(numPeers int) *SearchScratch {
	return &SearchScratch{visited: make([]uint32, numPeers), provides: make([]wantStamp, numPeers)}
}

// grown returns s extended with zero values so that index i is valid.
func grown[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// begin starts a new search epoch, invalidating all marks in O(1), and stamps
// every provider with the first want it provides: "which want does this peer
// close?" is then one array read per visited node, however many wants.
func (sc *SearchScratch) begin(wants []Want) {
	sc.gen++
	if sc.gen == 0 { // wrapped: stale stamps could alias; hard-reset once
		clear(sc.visited)
		clear(sc.provides)
		sc.gen = 1
	}
	for i := len(wants) - 1; i >= 0; i-- { // backwards: the earlier want wins
		for _, p := range wants[i].Providers {
			sc.provides = grown(sc.provides, int(p))
			sc.provides[p] = wantStamp{gen: sc.gen, want: int32(i)}
		}
	}
}

// match returns the first of the search's nwants wants that p provides, or
// -1, and charges stats what a want-by-want scan would (SearchStats.WantsChecked).
func (sc *SearchScratch) match(p PeerID, nwants int, stats *SearchStats) int {
	if int(p) < len(sc.provides) && sc.provides[p].gen == sc.gen {
		w := int(sc.provides[p].want)
		stats.WantsChecked += w + 1
		return w
	}
	stats.WantsChecked += nwants
	return -1
}

func (sc *SearchScratch) marked(p PeerID) bool {
	return int(p) < len(sc.visited) && sc.visited[p] == sc.gen
}

func (sc *SearchScratch) mark(p PeerID) {
	sc.visited = grown(sc.visited, int(p))
	sc.visited[p] = sc.gen
}

func (sc *SearchScratch) unmark(p PeerID) {
	if int(p) < len(sc.visited) {
		sc.visited[p] = 0
	}
}

// bfsNode is one visited node of the breadth-first ring search.
type bfsNode struct {
	edge   Edge
	parent int // index into the node pool, -1 for depth-2 nodes
	depth  int
}

// Graph searches a request graph for exchange rings; it is the one ring
// search. The simulator runs it over the current request graph (per-peer
// incoming request queues), which is equivalent to searching perfectly
// fresh request trees; a live node runs it, through FindRing, over the
// edges its request tree records. Staleness and token validation are then
// handled by the caller at ring-start time.
type Graph struct {
	// Adj returns the in-edges of a peer: who has a live (unserved) request
	// registered with it, and for which object. The order must be
	// deterministic; it defines traversal tie-breaking. limit is the
	// search's Fanout: when positive, only the first limit edges of that
	// order will be explored, so an implementation that has to filter a long
	// queue may stop as soon as it has produced them (returning more is
	// harmless — the surplus is ignored).
	Adj func(p PeerID, limit int) []Edge
	// Budget caps visited nodes per search (0 means DefaultSearchBudget).
	Budget int
	// Fanout caps how many in-edges are explored per node (0 = unlimited).
	Fanout int
	// Scratch, when set, keeps searches allocation-free by reusing working
	// memory across calls. Searches behave identically with or without it.
	Scratch *SearchScratch
}

func (g Graph) budget() int {
	if g.Budget <= 0 {
		return DefaultSearchBudget
	}
	return g.Budget
}

func (g Graph) edges(p PeerID) []Edge {
	es := g.Adj(p, g.Fanout)
	if g.Fanout > 0 && len(es) > g.Fanout {
		es = es[:g.Fanout]
	}
	return es
}

// FindRing searches for the best ring rooted at root per the policy: the
// shallowest candidate under PairwiseOnly and ShortFirst (earliest in
// breadth-first order on ties), the deepest under LongFirst (earliest in
// depth-first order on ties).
func (g Graph) FindRing(root PeerID, wants []Want, pol Policy) (*Ring, int, SearchStats, bool) {
	return g.search(root, nil, wants, pol)
}

// FindRingVia restricts the depth-2 frontier to the single edge first: it is
// the cheap incremental search a peer runs when one new request arrives
// ("on receipt of each request, it need only inspect the incoming request
// tree associated with that request").
func (g Graph) FindRingVia(root PeerID, first Edge, wants []Want, pol Policy) (*Ring, int, SearchStats, bool) {
	return g.search(root, &first, wants, pol)
}

func (g Graph) search(root PeerID, first *Edge, wants []Want, pol Policy) (*Ring, int, SearchStats, bool) {
	var stats SearchStats
	if !pol.SearchesExchanges() || len(wants) == 0 {
		return nil, 0, stats, false
	}
	sc := g.Scratch
	if sc == nil {
		sc = NewSearchScratch(0)
	}
	sc.begin(wants)
	if pol.Kind == LongFirst {
		return g.searchDeepFirst(sc, root, first, wants, pol, &stats)
	}
	return g.searchShallowFirst(sc, root, first, wants, pol, &stats)
}

// frontier returns the depth-2 seed edges: the single via edge, or the
// root's full in-edge list.
func (g Graph) frontier(sc *SearchScratch, root PeerID, first *Edge) []Edge {
	if first != nil {
		sc.first1[0] = *first
		return sc.first1[:]
	}
	return g.edges(root)
}

// searchShallowFirst runs a breadth-first traversal, so the first candidate
// found closes the smallest possible ring (ShortFirst and PairwiseOnly both
// want the shallowest match, earliest within a level).
func (g Graph) searchShallowFirst(sc *SearchScratch, root PeerID, first *Edge, wants []Want, pol Policy, stats *SearchStats) (*Ring, int, SearchStats, bool) {
	limit := pol.Limit()
	budget := g.budget()

	nodes := sc.nodes[:0]
	defer func() { sc.nodes = nodes }()
	sc.mark(root)

	build := func(idx, want int) (*Ring, int, SearchStats, bool) {
		stats.Candidates++
		rev := sc.path[:0]
		for i := idx; i >= 0; i = nodes[i].parent {
			rev = append(rev, nodes[i].edge)
		}
		sc.path = rev
		ring := &Ring{Members: make([]Member, 0, len(rev)+1)}
		ring.Members = append(ring.Members, Member{Peer: root, Gives: rev[len(rev)-1].Object})
		for i := len(rev) - 1; i > 0; i-- {
			ring.Members = append(ring.Members, Member{Peer: rev[i].Peer, Gives: rev[i-1].Object})
		}
		ring.Members = append(ring.Members, Member{Peer: rev[0].Peer, Gives: wants[want].Object})
		return ring, want, *stats, true
	}

	push := func(e Edge, parent, depth int) (int, bool) {
		if sc.marked(e.Peer) || stats.NodesVisited >= budget {
			return -1, false
		}
		sc.mark(e.Peer)
		stats.NodesVisited++
		nodes = append(nodes, bfsNode{edge: e, parent: parent, depth: depth})
		return len(nodes) - 1, true
	}

	// Seed the depth-2 frontier.
	for _, e := range g.frontier(sc, root, first) {
		idx, ok := push(e, -1, 2)
		if !ok {
			continue
		}
		if w := sc.match(e.Peer, len(wants), stats); w >= 0 {
			return build(idx, w)
		}
	}
	// Expand level by level; checking at push time preserves level order
	// because every depth-d node is pushed before any depth-(d+1) node.
	for head := 0; head < len(nodes); head++ {
		n := nodes[head]
		if n.depth >= limit {
			continue
		}
		for _, e := range g.edges(n.edge.Peer) {
			idx, ok := push(e, head, n.depth+1)
			if !ok {
				continue
			}
			if w := sc.match(e.Peer, len(wants), stats); w >= 0 {
				return build(idx, w)
			}
		}
	}
	return nil, 0, *stats, false
}

// searchDeepFirst runs a depth-first traversal tracking the deepest
// candidate, returning immediately when a candidate at the ring-size limit
// is found. Unlike BFS it may revisit a peer over different paths, so the
// on-path marks guard against repeated peers inside one ring (mark on
// descent, unmark on backtrack).
func (g Graph) searchDeepFirst(sc *SearchScratch, root PeerID, first *Edge, wants []Want, pol Policy, stats *SearchStats) (*Ring, int, SearchStats, bool) {
	limit := pol.Limit()
	budget := g.budget()

	bestWant := -1
	best := sc.best[:0]
	path := sc.path[:0]
	defer func() { sc.best, sc.path = best, path }()
	sc.mark(root)

	var walk func(e Edge, depth int) bool // returns true to abort (limit hit)
	walk = func(e Edge, depth int) bool {
		if depth > limit || sc.marked(e.Peer) || stats.NodesVisited >= budget {
			return false
		}
		stats.NodesVisited++
		path = append(path, e)
		sc.mark(e.Peer)
		abort := false
		if w := sc.match(e.Peer, len(wants), stats); w >= 0 {
			stats.Candidates++
			if bestWant < 0 || len(path) > len(best) {
				best = append(best[:0], path...)
				bestWant = w
			}
			abort = depth == limit
		}
		// A node at the depth limit has no explorable children: skip
		// materializing its adjacency altogether. A node one level above it
		// visits its children, the leaves, in its own loop: a leaf is
		// counted and matched like any node, but never marked or pushed,
		// and a match there is the deepest possible candidate, so it ends
		// the search.
		switch {
		case depth+1 == limit:
			for _, c := range g.edges(e.Peer) {
				if sc.marked(c.Peer) || stats.NodesVisited >= budget {
					continue
				}
				stats.NodesVisited++
				if w := sc.match(c.Peer, len(wants), stats); w >= 0 {
					stats.Candidates++
					best = append(append(best[:0], path...), c)
					bestWant = w
					abort = true
					break
				}
			}
		case depth < limit:
			for _, c := range g.edges(e.Peer) {
				if walk(c, depth+1) {
					abort = true
					break
				}
			}
		}
		sc.unmark(e.Peer)
		path = path[:len(path)-1]
		return abort
	}

	for _, e := range g.frontier(sc, root, first) {
		if walk(e, 2) {
			break
		}
	}
	if bestWant < 0 {
		return nil, 0, *stats, false
	}
	ring := &Ring{Members: make([]Member, 0, len(best)+1)}
	ring.Members = append(ring.Members, Member{Peer: root, Gives: best[0].Object})
	for i := 0; i < len(best)-1; i++ {
		ring.Members = append(ring.Members, Member{Peer: best[i].Peer, Gives: best[i+1].Object})
	}
	last := best[len(best)-1]
	ring.Members = append(ring.Members, Member{Peer: last.Peer, Gives: wants[bestWant].Object})
	return ring, bestWant, *stats, true
}
