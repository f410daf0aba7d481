package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"barter/internal/catalog"
	"barter/internal/rng"
)

func wantOf(obj catalog.ObjectID, providers ...PeerID) Want {
	return Want{Object: obj, Providers: providers}
}

func TestPolicyValidate(t *testing.T) {
	cases := []struct {
		pol Policy
		ok  bool
	}{
		{PolicyNoExchange, true},
		{PolicyPairwise, true},
		{Policy2N, true},
		{PolicyN2, true},
		{Policy{Kind: ShortFirst, MaxRing: 1}, false},
		{Policy{Kind: PolicyKind(99)}, false},
	}
	for _, tc := range cases {
		err := tc.pol.Validate()
		if tc.ok && err != nil {
			t.Errorf("%v: unexpected error %v", tc.pol, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%v: expected error", tc.pol)
		}
	}
}

func TestPolicyString(t *testing.T) {
	cases := map[string]Policy{
		"no-exchange": PolicyNoExchange,
		"pairwise":    PolicyPairwise,
		"2-5-way":     Policy2N,
		"5-2-way":     PolicyN2,
		"2-7-way":     {Kind: ShortFirst, MaxRing: 7},
		"7-2-way":     {Kind: LongFirst, MaxRing: 7},
	}
	for want, pol := range cases {
		if got := pol.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestPolicyLimit(t *testing.T) {
	if PolicyNoExchange.Limit() != 0 {
		t.Error("NoExchange limit not 0")
	}
	if PolicyPairwise.Limit() != 2 {
		t.Error("Pairwise limit not 2")
	}
	if Policy2N.Limit() != 5 || PolicyN2.Limit() != 5 {
		t.Error("default N policies limit not 5")
	}
}

// depth returns the depth of t's deepest node, counting the root as 1.
func depth(t *Tree) int {
	d, at := 1, make([]int, len(t.Nodes))
	for i, n := range t.Nodes {
		at[i] = 2
		if n.Parent >= 0 {
			at[i] = at[n.Parent] + 1
		}
		d = max(d, at[i])
	}
	return d
}

func TestBuildTreeEmptyIRQ(t *testing.T) {
	tree := BuildTree(1, nil, 5)
	if tree.Root != 1 || len(tree.Nodes) != 0 {
		t.Fatalf("empty IRQ tree = %+v", tree)
	}
}

func TestBuildTreeIncorporatesAttached(t *testing.T) {
	// C requested o3 from B (C had no requesters), B requested o2 from A.
	cTree := BuildTree(3, nil, 5)
	bTree := BuildTree(2, []IRQEntry{{Requester: 3, Object: 3, Attached: cTree}}, 5)
	aTree := BuildTree(1, []IRQEntry{{Requester: 2, Object: 2, Attached: bTree}}, 5)

	want := []TreeNode{{Peer: 2, Object: 2, Parent: -1}, {Peer: 3, Object: 3, Parent: 0}}
	if !slices.Equal(aTree.Nodes, want) {
		t.Fatalf("nodes = %+v, want %+v", aTree.Nodes, want)
	}
	if d := depth(aTree); d != 3 {
		t.Fatalf("depth = %d, want 3", d)
	}
}

// chain builds a linear request chain of n peers: peer i+1 requested object
// (i+1) from peer i, rooted at peer 0, pruned to maxDepth.
func chain(n, maxDepth int) *Tree {
	var attached *Tree
	for p := n - 1; p >= 1; p-- {
		var irq []IRQEntry
		if attached != nil {
			irq = []IRQEntry{{
				Requester: attached.Root,
				Object:    catalog.ObjectID(attached.Root),
				Attached:  attached,
			}}
		}
		attached = BuildTree(PeerID(p), irq, maxDepth)
	}
	var irq []IRQEntry
	if attached != nil {
		irq = []IRQEntry{{
			Requester: attached.Root,
			Object:    catalog.ObjectID(attached.Root),
			Attached:  attached,
		}}
	}
	return BuildTree(0, irq, maxDepth)
}

func TestBuildTreePrunesToMaxDepth(t *testing.T) {
	tree := chain(10, 5)
	if d := depth(tree); d != 5 {
		t.Fatalf("depth = %d, want pruned to 5", d)
	}
}

// TestBuildTreeCopiesAttached: pruning copies the attached tree's nodes, so
// the result shares nothing with its input.
func TestBuildTreeCopiesAttached(t *testing.T) {
	attached := chain(5, 5)
	tree := BuildTree(9, []IRQEntry{{Requester: 0, Object: 7, Attached: attached}}, 3)
	if d := depth(tree); d != 3 {
		t.Fatalf("pruned depth = %d, want 3", d)
	}
	tree.Nodes[1].Peer = 99
	if attached.Nodes[0].Peer == 99 {
		t.Fatal("BuildTree shares nodes with the attached tree")
	}
	if d := depth(attached); d != 5 {
		t.Fatalf("attached depth changed to %d", d)
	}
}

func TestBuildTreeDepthOneIsRootOnly(t *testing.T) {
	attached := chain(5, 5)
	tree := BuildTree(9, []IRQEntry{{Requester: 0, Object: 7, Attached: attached}}, 1)
	if len(tree.Nodes) != 0 {
		t.Fatalf("maxDepth 1 kept %d nodes", len(tree.Nodes))
	}
}

// TestBuildTreeDropsBadParents: a remote tree is cleaned up where it is
// composed. A node whose parent is not an earlier kept node (a forward or a
// self reference, or a child of such a node) is dropped with its subtree, as
// is a node naming the root; the request itself stays in the tree.
func TestBuildTreeDropsBadParents(t *testing.T) {
	cases := []struct {
		name     string
		attached []TreeNode
		want     []TreeNode // below the entry {Peer: 2, Object: 20}
	}{
		{"forward parent", []TreeNode{{Peer: 3, Object: 30, Parent: 1}, {Peer: 4, Object: 40, Parent: -1}},
			[]TreeNode{{Peer: 4, Object: 40, Parent: 0}}},
		{"self parent", []TreeNode{{Peer: 3, Object: 30, Parent: 0}},
			nil},
		{"child of a dropped node", []TreeNode{{Peer: 3, Object: 30, Parent: 0}, {Peer: 4, Object: 40, Parent: 0}, {Peer: 5, Object: 50, Parent: -1}},
			[]TreeNode{{Peer: 5, Object: 50, Parent: 0}}},
		{"parent below -1", []TreeNode{{Peer: 3, Object: 30, Parent: -7}},
			nil},
		{"names the root", []TreeNode{{Peer: 1, Object: 30, Parent: -1}, {Peer: 4, Object: 40, Parent: 0}, {Peer: 5, Object: 50, Parent: -1}},
			[]TreeNode{{Peer: 5, Object: 50, Parent: 0}}},
	}
	for _, tc := range cases {
		tree := BuildTree(1, []IRQEntry{{Requester: 2, Object: 20, Attached: &Tree{Root: 2, Nodes: tc.attached}}}, 5)
		want := append([]TreeNode{{Peer: 2, Object: 20, Parent: -1}}, tc.want...)
		if !slices.Equal(tree.Nodes, want) {
			t.Errorf("%s: nodes = %+v, want %+v", tc.name, tree.Nodes, want)
		}
	}
	if tree := BuildTree(1, []IRQEntry{{Requester: 1, Object: 20}}, 5); len(tree.Nodes) != 0 {
		t.Errorf("an entry naming the root was kept: %+v", tree.Nodes)
	}
}

// TestFindRingRemoteIDsSafe: ids a remote peer chose — the largest PeerID, a
// negative one, the searcher's own — neither panic the search nor size its
// memory, and the ring the honest part of the tree closes is still found.
func TestFindRingRemoteIDsSafe(t *testing.T) {
	attached := &Tree{Root: 2, Nodes: []TreeNode{
		{Peer: math.MaxInt32, Object: 11, Parent: -1},
		{Peer: -1, Object: 12, Parent: 0},
		{Peer: 1, Object: 13, Parent: -1},
		{Peer: 5, Object: 15, Parent: 2},
		{Peer: 3, Object: 14, Parent: -1},
	}}
	irq := []IRQEntry{{Requester: 2, Object: 10, Attached: attached}}
	wants := []Want{wantOf(98, -5, math.MaxInt32/2, 1), wantOf(99, 3)}
	want := []Member{{Peer: 1, Gives: 10}, {Peer: 2, Gives: 14}, {Peer: 3, Gives: 99}}
	for _, pol := range []Policy{Policy2N, PolicyN2} {
		ring, wi, _, ok := FindRing(BuildTree(1, irq, DefaultMaxRing), wants, pol)
		if !ok || wi != 1 || !slices.Equal(ring.Members, want) {
			t.Fatalf("%v: ring %v want %d ok=%v; expected %v", pol, ring, wi, ok, want)
		}
	}
	var before, after runtime.MemStats
	const runs = 100
	runtime.ReadMemStats(&before)
	for range runs {
		FindRing(BuildTree(1, irq, DefaultMaxRing), wants, PolicyN2)
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 4<<10 {
		t.Fatalf("one build and search of a %d-node tree allocated %d bytes", len(attached.Nodes)+1, perRun)
	}
}

func TestTreeString(t *testing.T) {
	tree := chain(3, 5)
	s := tree.String()
	for _, want := range []string{"P0", "P1 (wants o1)", "P2 (wants o2)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestFindRingPairwise(t *testing.T) {
	// B requested o10 from A; B provides o20 which A wants.
	tree := BuildTree(1, []IRQEntry{{Requester: 2, Object: 10}}, 5)
	wants := []Want{wantOf(20, 2)}
	ring, wi, stats, ok := FindRing(tree, wants, PolicyPairwise)
	if !ok {
		t.Fatal("pairwise ring not found")
	}
	if wi != 0 {
		t.Fatalf("want index = %d", wi)
	}
	if ring.Size() != 2 {
		t.Fatalf("ring size = %d, want 2", ring.Size())
	}
	if ring.Members[0] != (Member{Peer: 1, Gives: 10}) {
		t.Fatalf("member 0 = %+v", ring.Members[0])
	}
	if ring.Members[1] != (Member{Peer: 2, Gives: 20}) {
		t.Fatalf("member 1 = %+v", ring.Members[1])
	}
	if err := ring.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.NodesVisited == 0 {
		t.Fatal("stats not collected")
	}
}

// figure2Tree builds the shape of the paper's Figure 2: A's request tree
// with requesters P1, P2, P3 at depth 2; P2's subtree contains P9 at depth 3
// which owns an object A wants, so A can initiate a 3-way exchange
// A -> P2 -> P9 -> A.
func figure2Tree() *Tree {
	p9 := BuildTree(9, nil, 5)
	p2 := BuildTree(2, []IRQEntry{
		{Requester: 7, Object: 7},
		{Requester: 9, Object: 9, Attached: p9},
	}, 5)
	return BuildTree(1, []IRQEntry{
		{Requester: 11, Object: 11},
		{Requester: 2, Object: 2, Attached: p2},
		{Requester: 3, Object: 3},
	}, 5)
}

func TestFindRingThreeWayFigure2(t *testing.T) {
	tree := figure2Tree()
	wants := []Want{wantOf(100, 9)} // P9 owns o100 which A wants
	ring, _, _, ok := FindRing(tree, wants, Policy2N)
	if !ok {
		t.Fatal("3-way ring not found")
	}
	if ring.Size() != 3 {
		t.Fatalf("ring size = %d, want 3", ring.Size())
	}
	want := []Member{{Peer: 1, Gives: 2}, {Peer: 2, Gives: 9}, {Peer: 9, Gives: 100}}
	for i, m := range ring.Members {
		if m != want[i] {
			t.Fatalf("member %d = %+v, want %+v", i, m, want[i])
		}
	}
}

func TestFindRingNoExchangePolicy(t *testing.T) {
	tree := figure2Tree()
	wants := []Want{wantOf(100, 9)}
	if _, _, _, ok := FindRing(tree, wants, PolicyNoExchange); ok {
		t.Fatal("NoExchange policy found a ring")
	}
}

func TestFindRingPairwiseIgnoresDeeperProviders(t *testing.T) {
	tree := figure2Tree()
	wants := []Want{wantOf(100, 9)} // provider only at depth 3
	if _, _, _, ok := FindRing(tree, wants, PolicyPairwise); ok {
		t.Fatal("pairwise policy built a 3-way ring")
	}
}

func TestShortFirstPrefersShallow(t *testing.T) {
	tree := figure2Tree()
	// Both P3 (depth 2) and P9 (depth 3) provide a wanted object.
	wants := []Want{wantOf(100, 9), wantOf(200, 3)}
	ring, wi, _, ok := FindRing(tree, wants, Policy2N)
	if !ok {
		t.Fatal("no ring found")
	}
	if ring.Size() != 2 || ring.Members[1].Peer != 3 {
		t.Fatalf("ShortFirst chose %v, want pairwise with P3", ring)
	}
	if wi != 1 {
		t.Fatalf("want index = %d, want 1", wi)
	}
}

func TestLongFirstPrefersDeep(t *testing.T) {
	tree := figure2Tree()
	wants := []Want{wantOf(100, 9), wantOf(200, 3)}
	ring, wi, _, ok := FindRing(tree, wants, PolicyN2)
	if !ok {
		t.Fatal("no ring found")
	}
	if ring.Size() != 3 || ring.Members[2].Peer != 9 {
		t.Fatalf("LongFirst chose %v, want 3-way through P9", ring)
	}
	if wi != 0 {
		t.Fatalf("want index = %d, want 0", wi)
	}
}

func TestFindRingRespectsMaxRing(t *testing.T) {
	tree := chain(6, 6) // providers only reachable at depth 6
	wants := []Want{wantOf(100, 5)}
	if _, _, _, ok := FindRing(tree, wants, Policy{Kind: ShortFirst, MaxRing: 5}); ok {
		t.Fatal("ring exceeded MaxRing")
	}
	ring, _, _, ok := FindRing(tree, wants, Policy{Kind: ShortFirst, MaxRing: 6})
	if !ok || ring.Size() != 6 {
		t.Fatalf("6-way ring not found with MaxRing=6 (ok=%v)", ok)
	}
}

func TestFindRingSkipsRepeatedPeers(t *testing.T) {
	// The root itself appears at depth 3 (A requested from B, B from A):
	// a "ring" closing through the root would be degenerate.
	aAsRequester := BuildTree(1, nil, 5)
	b := BuildTree(2, []IRQEntry{{Requester: 1, Object: 50, Attached: aAsRequester}}, 5)
	tree := BuildTree(1, []IRQEntry{{Requester: 2, Object: 60, Attached: b}}, 5)
	wants := []Want{wantOf(70, 1)} // only "provider" is the root itself
	if _, _, _, ok := FindRing(tree, wants, Policy2N); ok {
		t.Fatal("ring contains the root twice")
	}
}

func TestFindRingFirstWantWins(t *testing.T) {
	tree := BuildTree(1, []IRQEntry{{Requester: 2, Object: 10}}, 5)
	wants := []Want{wantOf(20, 2), wantOf(30, 2)}
	_, wi, _, ok := FindRing(tree, wants, Policy2N)
	if !ok || wi != 0 {
		t.Fatalf("want index = %d (ok=%v), want 0", wi, ok)
	}
}

func TestFindRingNoProviders(t *testing.T) {
	tree := figure2Tree()
	wants := []Want{wantOf(100, 77)} // P77 not in the tree
	if _, _, _, ok := FindRing(tree, wants, Policy2N); ok {
		t.Fatal("found a ring with no in-tree provider")
	}
}

func TestFindRingEmptyWants(t *testing.T) {
	tree := figure2Tree()
	if _, _, _, ok := FindRing(tree, nil, Policy2N); ok {
		t.Fatal("found a ring with no wants")
	}
}

func TestRingString(t *testing.T) {
	ring := &Ring{Members: []Member{{Peer: 1, Gives: 10}, {Peer: 2, Gives: 20}, {Peer: 3, Gives: 30}}}
	if !strings.Contains(ring.String(), "P1 -o10-> P2") {
		t.Fatalf("String = %q", ring.String())
	}
}

func TestRingValidate(t *testing.T) {
	bad := &Ring{Members: []Member{{Peer: 1}}}
	if bad.Validate() == nil {
		t.Fatal("size-1 ring validated")
	}
	dup := &Ring{Members: []Member{{Peer: 1}, {Peer: 1}}}
	if dup.Validate() == nil {
		t.Fatal("duplicate-peer ring validated")
	}
}

// randomTree builds a random request tree with distinct peers and records the
// parent edges so the property test can verify returned rings against the
// true request graph.
func randomTree(r *rng.RNG, maxDepth int) (*Tree, map[PeerID]PeerID, map[PeerID]catalog.ObjectID) {
	parent := make(map[PeerID]PeerID)
	edgeObj := make(map[PeerID]catalog.ObjectID)
	next := PeerID(1)
	tree := &Tree{Root: 0}
	type frame struct {
		at    int32 // index in tree.Nodes, -1 for the root
		peer  PeerID
		depth int
	}
	stack := []frame{{at: -1, peer: 0, depth: 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.depth >= maxDepth {
			continue
		}
		kids := r.Intn(3)
		for i := 0; i < kids && next < 60; i++ {
			obj := catalog.ObjectID(r.Intn(500))
			parent[next] = f.peer
			edgeObj[next] = obj
			tree.Nodes = append(tree.Nodes, TreeNode{Peer: next, Object: obj, Parent: f.at})
			stack = append(stack, frame{at: int32(len(tree.Nodes) - 1), peer: next, depth: f.depth + 1})
			next++
		}
	}
	return tree, parent, edgeObj
}

// TestPropertyRingsAreTrueCycles checks, over many random trees and provider
// sets, that any ring FindRing returns (a) starts at the root, (b) has
// distinct peers, (c) respects the size limit, and (d) follows real request
// edges, closing with a provider of the matched want.
func TestPropertyRingsAreTrueCycles(t *testing.T) {
	r := rng.New(2024)
	for iter := 0; iter < 500; iter++ {
		tree, parent, edgeObj := randomTree(r, 6)
		// Random providers: a handful of peers that exist in or out of tree.
		wants := make([]Want, 1+r.Intn(3))
		for i := range wants {
			var prov []PeerID
			for j := 0; j < r.Intn(4); j++ {
				prov = append(prov, PeerID(r.Intn(70)))
			}
			wants[i] = Want{Object: catalog.ObjectID(1000 + i), Providers: prov}
		}
		for _, pol := range []Policy{PolicyPairwise, Policy2N, PolicyN2, {Kind: LongFirst, MaxRing: 3}} {
			ring, wi, _, ok := FindRing(tree, wants, pol)
			if !ok {
				continue
			}
			if err := ring.Validate(); err != nil {
				t.Fatalf("iter %d %v: %v", iter, pol, err)
			}
			if ring.Members[0].Peer != tree.Root {
				t.Fatalf("iter %d: ring does not start at root", iter)
			}
			if ring.Size() > pol.Limit() || ring.Size() < 2 {
				t.Fatalf("iter %d %v: ring size %d outside [2, %d]", iter, pol, ring.Size(), pol.Limit())
			}
			// Each non-root member must be a tree child of the previous
			// member, receiving the object it requested on that edge.
			for i := 1; i < ring.Size(); i++ {
				m := ring.Members[i]
				if parent[m.Peer] != ring.Members[i-1].Peer {
					t.Fatalf("iter %d: member %d not a request-graph child", iter, i)
				}
				if edgeObj[m.Peer] != ring.Members[i-1].Gives {
					t.Fatalf("iter %d: member %d gives %d, edge wants %d",
						iter, i-1, ring.Members[i-1].Gives, edgeObj[m.Peer])
				}
			}
			last := ring.Members[ring.Size()-1]
			if !slices.Contains(wants[wi].Providers, last.Peer) {
				t.Fatalf("iter %d: closing peer %d is not a provider of want %d", iter, last.Peer, wi)
			}
			if last.Gives != wants[wi].Object {
				t.Fatalf("iter %d: closing peer gives %d, want %d", iter, last.Gives, wants[wi].Object)
			}
		}
	}
}

func TestPropertyPolicyOrdering(t *testing.T) {
	r := rng.New(77)
	for iter := 0; iter < 300; iter++ {
		tree, _, _ := randomTree(r, 6)
		wants := []Want{{Object: 999, Providers: []PeerID{PeerID(r.Intn(60)), PeerID(r.Intn(60))}}}
		rs, _, _, okS := FindRing(tree, wants, Policy2N)
		rl, _, _, okL := FindRing(tree, wants, PolicyN2)
		if okS != okL {
			t.Fatalf("iter %d: ShortFirst ok=%v but LongFirst ok=%v", iter, okS, okL)
		}
		if okS && rs.Size() > rl.Size() {
			t.Fatalf("iter %d: ShortFirst ring (%d) larger than LongFirst ring (%d)",
				iter, rs.Size(), rl.Size())
		}
	}
}

func BenchmarkFindRing(b *testing.B) {
	r := rng.New(5)
	tree, _, _ := randomTree(r, 6)
	wants := []Want{
		{Object: 999, Providers: []PeerID{40}},
		{Object: 998, Providers: []PeerID{55}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindRing(tree, wants, Policy2N)
	}
}

// Validate checks the structural invariants of a ring: at least two members,
// all peers distinct, and every member giving some object.
func (r *Ring) Validate() error {
	if len(r.Members) < 2 {
		return fmt.Errorf("core: ring of size %d, want >= 2", len(r.Members))
	}
	seen := make(map[PeerID]bool, len(r.Members))
	for _, m := range r.Members {
		if seen[m.Peer] {
			return fmt.Errorf("core: peer %d appears twice in ring", m.Peer)
		}
		seen[m.Peer] = true
	}
	return nil
}
