package core

import (
	"fmt"
	"strings"

	"barter/internal/catalog"
)

// TreeNode is one node of a request tree. The node's peer requested Object
// from the node's parent (in request-graph terms: an edge from Peer to the
// parent labeled Object).
type TreeNode struct {
	Peer     PeerID
	Object   catalog.ObjectID
	Children []*TreeNode
}

// Tree is a peer's request tree: an implicit root (the peer itself) whose
// children are the entries of its incoming request queue, each carrying the
// request tree that accompanied the request.
type Tree struct {
	Root     PeerID
	Children []*TreeNode
}

// IRQEntry is the request-tree-relevant part of one incoming request: who
// asked, for what, and the (already pruned) tree attached to the request.
// Attached may be nil when the requester had no incoming requests itself.
type IRQEntry struct {
	Requester PeerID
	Object    catalog.ObjectID
	Attached  *Tree
}

// BuildTree assembles a peer's request tree from its incoming request queue,
// pruned so that no node lies deeper than maxDepth (the root is at depth 1;
// the paper prunes to depth 5). Attached trees are incorporated by reference
// into fresh nodes; the input trees are not modified.
func BuildTree(root PeerID, irq []IRQEntry, maxDepth int) *Tree {
	t := &Tree{Root: root}
	if maxDepth < 2 {
		return t
	}
	for _, e := range irq {
		child := &TreeNode{Peer: e.Requester, Object: e.Object}
		if e.Attached != nil {
			child.Children = pruneNodes(e.Attached.Children, 3, maxDepth)
		}
		t.Children = append(t.Children, child)
	}
	return t
}

// pruneNodes deep-copies nodes whose depth does not exceed maxDepth. depth is
// the depth the copied nodes will occupy in the destination tree.
func pruneNodes(nodes []*TreeNode, depth, maxDepth int) []*TreeNode {
	if depth > maxDepth || len(nodes) == 0 {
		return nil
	}
	out := make([]*TreeNode, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, &TreeNode{
			Peer:     n.Peer,
			Object:   n.Object,
			Children: pruneNodes(n.Children, depth+1, maxDepth),
		})
	}
	return out
}

// Prune returns a deep copy of t with no node deeper than maxDepth (root at
// depth 1). This is what a peer attaches to an outgoing request.
func (t *Tree) Prune(maxDepth int) *Tree {
	return &Tree{Root: t.Root, Children: pruneNodes(t.Children, 2, maxDepth)}
}

// Depth returns the depth of the deepest node, counting the root as 1.
func (t *Tree) Depth() int {
	d := 1
	var walk func(n *TreeNode, depth int)
	walk = func(n *TreeNode, depth int) {
		if depth > d {
			d = depth
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, c := range t.Children {
		walk(c, 2)
	}
	return d
}

// Size returns the number of nodes including the root.
func (t *Tree) Size() int {
	n := 1
	var walk func(node *TreeNode)
	walk = func(node *TreeNode) {
		n++
		for _, c := range node.Children {
			walk(c)
		}
	}
	for _, c := range t.Children {
		walk(c)
	}
	return n
}

// String renders the tree one node per line, indented by depth, for
// debugging and the ringsearch example.
func (t *Tree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P%d\n", t.Root)
	var walk func(n *TreeNode, depth int)
	walk = func(n *TreeNode, depth int) {
		fmt.Fprintf(&b, "%sP%d (wants o%d)\n", strings.Repeat("  ", depth-1), n.Peer, n.Object)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, c := range t.Children {
		walk(c, 2)
	}
	return b.String()
}

// FindRing searches t for the best feasible exchange ring per the policy.
//
// A node at depth k (root at depth 1) closes a ring of k peers when the
// node's peer is a known provider of one of the searching peer's wants and
// no peer repeats along the root-to-node path. The ring serves every peer on
// the path: the root uploads to its depth-2 child the object that child
// requested, each path peer uploads to its path child likewise, and the
// closing peer uploads the matched want back to the root.
//
// ShortFirst prefers the shallowest candidate, LongFirst the deepest;
// ties break in deterministic depth-first traversal order. Wants are matched
// in slice order. The returned index identifies the satisfied want.
func FindRing(t *Tree, wants []Want, pol Policy) (*Ring, int, SearchStats, bool) {
	var stats SearchStats
	if !pol.SearchesExchanges() || len(wants) == 0 {
		return nil, 0, stats, false
	}
	limit := pol.Limit()

	type candidate struct {
		path  []*TreeNode // root-to-node path (excluding the root)
		want  int
		order int
	}
	var best *candidate
	better := func(c, b *candidate) bool {
		if b == nil {
			return true
		}
		cd, bd := len(c.path), len(b.path)
		if cd != bd {
			if pol.Kind == LongFirst {
				return cd > bd
			}
			return cd < bd
		}
		return c.order < b.order
	}

	// firstWant resolves each provider to the first want it provides, once per
	// call; live peer ids are not dense, hence a map where Graph stamps an array.
	firstWant := make(map[PeerID]int)
	for wi := len(wants) - 1; wi >= 0; wi-- { // backwards: the earlier want wins
		for _, p := range wants[wi].Providers {
			firstWant[p] = wi
		}
	}

	// onPath tracks peers along the current DFS path (including the root) so
	// rings never contain a repeated peer.
	onPath := map[PeerID]bool{t.Root: true}
	path := make([]*TreeNode, 0, limit)
	order := 0

	var walk func(n *TreeNode, depth int)
	walk = func(n *TreeNode, depth int) {
		if depth > limit || onPath[n.Peer] {
			return
		}
		stats.NodesVisited++
		order++
		path = append(path, n)
		onPath[n.Peer] = true
		if wi, ok := firstWant[n.Peer]; ok {
			stats.WantsChecked += wi + 1
			stats.Candidates++
			c := &candidate{path: append([]*TreeNode(nil), path...), want: wi, order: order}
			if better(c, best) {
				best = c
			}
		} else {
			stats.WantsChecked += len(wants)
		}
		// Early exit: a pairwise ring found under ShortFirst/PairwiseOnly
		// cannot be beaten, and tie-breaking favors earlier traversal.
		if best != nil && len(best.path) == 1 && pol.Kind != LongFirst {
			onPath[n.Peer] = false
			path = path[:len(path)-1]
			return
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
		onPath[n.Peer] = false
		path = path[:len(path)-1]
	}
	for _, c := range t.Children {
		walk(c, 2)
		if best != nil && len(best.path) == 1 && pol.Kind != LongFirst {
			break
		}
	}

	if best == nil {
		return nil, 0, stats, false
	}
	ring := &Ring{Members: make([]Member, 0, len(best.path)+1)}
	// The root uploads to the depth-2 node the object that node requested;
	// each path node uploads to its child likewise; the closing node uploads
	// the matched want back to the root.
	ring.Members = append(ring.Members, Member{Peer: t.Root, Gives: best.path[0].Object})
	for i := 0; i < len(best.path)-1; i++ {
		ring.Members = append(ring.Members, Member{Peer: best.path[i].Peer, Gives: best.path[i+1].Object})
	}
	last := best.path[len(best.path)-1]
	ring.Members = append(ring.Members, Member{Peer: last.Peer, Gives: wants[best.want].Object})
	return ring, best.want, stats, true
}
