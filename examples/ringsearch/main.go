// Ringsearch reconstructs the paper's Figure 2 walkthrough: peer A's request
// tree contains requesters P2, P3, P11 at depth 2, P2's subtree reaches P9
// at depth 3, and P9 owns an object A wants — so A can initiate a 3-way
// exchange A -> P2 -> P9 -> A. The example prints the tree (its flat nodes,
// indented by depth), runs the ring search under each policy, and shows the
// resulting rings. The search is the simulator's core.Graph run over the
// request edges the tree records: breadth-first under pairwise and 2-5-way,
// depth-first under 5-2-way, each counting the peers it visits.
package main

import (
	"fmt"

	"barter/internal/core"
)

func main() {
	// P9 requested o9 from P2 (P9 itself has no requesters).
	p9 := core.BuildTree(9, nil, core.DefaultMaxRing)
	// P2's queue: P7 wants o7, P9 wants o9 (carrying P9's empty tree).
	p2 := core.BuildTree(2, []core.IRQEntry{
		{Requester: 7, Object: 7},
		{Requester: 9, Object: 9, Attached: p9},
	}, core.DefaultMaxRing)
	// A's queue: P11 wants o11, P2 wants o2 (with P2's tree), P3 wants o3.
	tree := core.BuildTree(1, []core.IRQEntry{
		{Requester: 11, Object: 11},
		{Requester: 2, Object: 2, Attached: p2},
		{Requester: 3, Object: 3},
	}, core.DefaultMaxRing)

	fmt.Println("A's request tree (A = P1):")
	fmt.Println(tree)

	// A wants o100, provided by P9 (depth 3), and o200, provided by P3
	// (depth 2, a pairwise alternative).
	wants := []core.Want{
		{Object: 100, Providers: []core.PeerID{9}},
		{Object: 200, Providers: []core.PeerID{3}},
	}
	fmt.Println("A wants o100 (provided by P9, depth 3) and o200 (provided by P3, depth 2).")
	fmt.Println()

	for _, pol := range []core.Policy{core.PolicyPairwise, core.Policy2N, core.PolicyN2} {
		ring, wi, stats, ok := core.FindRing(tree, wants, pol)
		if !ok {
			fmt.Printf("%-10s found no ring\n", pol)
			continue
		}
		fmt.Printf("%-10s -> %d-way ring satisfying want o%d  (visited %d peers)\n",
			pol, ring.Size(), wants[wi].Object, stats.NodesVisited)
		for i, m := range ring.Members {
			to := ring.Members[(i+1)%ring.Size()]
			fmt.Printf("             P%d uploads o%d to P%d\n", m.Peer, m.Gives, to.Peer)
		}
	}
}
