package core

import (
	"fmt"
	"strings"

	"barter/internal/catalog"
)

// TreeNode is one node of a request tree. The node's peer requested Object
// from the node's parent (in request-graph terms: an edge from Peer to the
// parent labeled Object). Parent indexes Tree.Nodes; -1 means a child of
// the root.
type TreeNode struct {
	Peer   PeerID
	Object catalog.ObjectID
	Parent int32
}

// Tree is a peer's request tree in flat form, the form the wire carries: an
// implicit root (the peer itself) and its descendants, parents before their
// children. The root's children are the entries of its incoming request
// queue; below each hangs the request tree that accompanied that request.
type Tree struct {
	Root  PeerID
	Nodes []TreeNode
}

// IRQEntry is the request-tree-relevant part of one incoming request: who
// asked, for what, and the tree attached to the request. Attached may be nil
// when the requester had no incoming requests itself.
type IRQEntry struct {
	Requester PeerID
	Object    catalog.ObjectID
	Attached  *Tree
}

// BuildTree assembles a peer's request tree from its incoming request queue,
// pruned so that no node lies deeper than maxDepth (the root is at depth 1;
// the paper prunes to depth 5). Each entry becomes a child of the root and
// its attached tree is copied beneath it; the inputs are not modified.
//
// BuildTree is where a remote tree is cleaned up: an attached node is
// dropped, together with its subtree, when its parent is not an earlier node
// that was kept, or when it (or the entry itself) names root.
func BuildTree(root PeerID, irq []IRQEntry, maxDepth int) *Tree {
	t := &Tree{Root: root}
	if maxDepth < 2 {
		return t
	}
	size := len(irq)
	for _, e := range irq {
		if e.Attached != nil {
			size += len(e.Attached.Nodes)
		}
	}
	t.Nodes = make([]TreeNode, 0, size)
	// kept[i] is where attached node i landed in t.Nodes and at what depth;
	// at = -1 when it was dropped.
	type place struct{ at, depth int32 }
	var kept []place
	for _, e := range irq {
		if e.Requester == root {
			continue
		}
		entry := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, TreeNode{Peer: e.Requester, Object: e.Object, Parent: -1})
		if e.Attached == nil {
			continue
		}
		kept = kept[:0]
		for i, n := range e.Attached.Nodes {
			up := place{at: entry, depth: 2} // the entry sits at depth 2
			if n.Parent != -1 {
				up = place{at: -1}
				if n.Parent >= 0 && int(n.Parent) < i {
					up = kept[n.Parent]
				}
			}
			if up.at < 0 || int(up.depth) >= maxDepth || n.Peer == root {
				kept = append(kept, place{at: -1})
				continue
			}
			kept = append(kept, place{at: int32(len(t.Nodes)), depth: up.depth + 1})
			t.Nodes = append(t.Nodes, TreeNode{Peer: n.Peer, Object: n.Object, Parent: up.at})
		}
	}
	return t
}

// String renders the tree one node per line in Nodes order, indented by
// depth, for debugging and the ringsearch example.
func (t *Tree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P%d\n", t.Root)
	depth := make([]int, len(t.Nodes))
	for i, n := range t.Nodes {
		depth[i] = 1
		if n.Parent >= 0 && int(n.Parent) < i {
			depth[i] = depth[n.Parent] + 1
		}
		fmt.Fprintf(&b, "%sP%d (wants o%d)\n", strings.Repeat("  ", depth[i]), n.Peer, n.Object)
	}
	return b.String()
}

// FindRing searches t, as BuildTree returns it, for the best feasible
// exchange ring per the policy. It is the Graph search over the request
// edges the tree records: a peer's in-edges are the children of every node
// that names it, so a peer's requesters are found wherever in the tree it
// appears. The ring starts at the root and closes at a provider of one of
// wants; the returned index identifies the satisfied want. Ring sizes,
// tie-breaking and the visit budget are Graph's.
//
// Peer ids come from remote peers, so the search runs on dense local ids
// (the root is 0) and the ring is mapped back to the tree's ids: no remote
// id sizes or indexes search memory. Providers absent from the tree cannot
// close a ring and are left out of the search.
func FindRing(t *Tree, wants []Want, pol Policy) (*Ring, int, SearchStats, bool) {
	if !pol.SearchesExchanges() || len(wants) == 0 {
		return nil, 0, SearchStats{}, false
	}
	peers := []PeerID{t.Root} // local id -> tree id
	local := map[PeerID]PeerID{t.Root: 0}
	nodeIDs := make([]PeerID, len(t.Nodes))
	for i, n := range t.Nodes {
		id, ok := local[n.Peer]
		if !ok {
			id = PeerID(len(peers))
			local[n.Peer] = id
			peers = append(peers, n.Peer)
		}
		nodeIDs[i] = id
	}
	// A request reaches the tree once per path to its server (a peer that
	// asked several providers hangs under each): keep one edge per request.
	type request struct {
		server PeerID
		edge   Edge
	}
	seen := make(map[request]bool, len(t.Nodes))
	adj := make([][]Edge, len(peers))
	for i, n := range t.Nodes {
		var server PeerID // the root
		if n.Parent >= 0 {
			server = nodeIDs[n.Parent]
		}
		r := request{server, Edge{Peer: nodeIDs[i], Object: n.Object}}
		if !seen[r] {
			seen[r] = true
			adj[server] = append(adj[server], r.edge)
		}
	}
	localWants := make([]Want, len(wants))
	for i, w := range wants {
		localWants[i].Object = w.Object
		for _, p := range w.Providers {
			if id, ok := local[p]; ok {
				localWants[i].Providers = append(localWants[i].Providers, id)
			}
		}
	}
	g := Graph{Adj: func(p PeerID, _ int) []Edge { return adj[p] }, Scratch: NewSearchScratch(len(peers))}
	ring, wi, stats, ok := g.FindRing(0, localWants, pol)
	if ok {
		for i := range ring.Members {
			ring.Members[i].Peer = peers[ring.Members[i].Peer]
		}
	}
	return ring, wi, stats, ok
}
