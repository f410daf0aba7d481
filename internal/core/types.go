// Package core implements the paper's primary contribution: the exchange
// mechanism of Section III. It provides request trees (the per-peer partial
// view of the global request graph), the one n-way exchange-ring search
// (Graph, which a live peer runs over its request tree and the simulator
// over every peer's queue), and the search-order policies evaluated in
// Section IV (pairwise only, short-rings-first "2-N-way", long-rings-first
// "N-2-way").
//
// The request graph G is the directed graph whose vertices are peers and
// whose labeled edges represent requests: an edge from P1 to P2 with label o
// means P1 requested object o from P2. Any cycle of length n in G is a
// feasible n-way exchange. A peer's request tree is its partial local view
// of G: the root is the peer itself, its children are the peers with entries
// in its incoming request queue, and each child carries the (pruned) request
// tree that accompanied its request.
package core

import (
	"fmt"

	"barter/internal/catalog"
)

// PeerID identifies a peer in the request graph.
type PeerID int32

// DefaultMaxRing is the paper's ring-size cap: searches deeper than 5 do not
// substantially improve the likelihood of successful exchanges (Section IV,
// Figure 6).
const DefaultMaxRing = 5

// PolicyKind enumerates the exchange-search strategies compared in the
// evaluation.
type PolicyKind int

const (
	// NoExchange never searches for exchanges; every transfer is served
	// first-come-first-served from spare capacity. This is the paper's
	// baseline ("no exchange" in the figures).
	NoExchange PolicyKind = iota + 1
	// PairwiseOnly detects only 2-way exchanges.
	PairwiseOnly
	// ShortFirst searches ring sizes 2, 3, ..., MaxRing and takes the first
	// feasible ring ("2-N-way" in the figures).
	ShortFirst
	// LongFirst searches ring sizes MaxRing, ..., 3, 2 and takes the first
	// feasible ring ("N-2-way" in the figures).
	LongFirst
)

// Policy is a complete exchange-search configuration.
type Policy struct {
	Kind    PolicyKind
	MaxRing int // largest ring size considered; ignored for NoExchange and PairwiseOnly
}

// Common policies used throughout the experiments.
var (
	PolicyNoExchange = Policy{Kind: NoExchange}
	PolicyPairwise   = Policy{Kind: PairwiseOnly, MaxRing: 2}
	Policy2N         = Policy{Kind: ShortFirst, MaxRing: DefaultMaxRing}
	PolicyN2         = Policy{Kind: LongFirst, MaxRing: DefaultMaxRing}
)

// Validate reports the first configuration error, if any.
func (p Policy) Validate() error {
	switch p.Kind {
	case NoExchange, PairwiseOnly:
		return nil
	case ShortFirst, LongFirst:
		if p.MaxRing < 2 {
			return fmt.Errorf("core: MaxRing = %d, want >= 2", p.MaxRing)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown policy kind %d", int(p.Kind))
	}
}

// SearchesExchanges reports whether the policy looks for exchanges at all.
func (p Policy) SearchesExchanges() bool { return p.Kind != NoExchange }

// Limit returns the largest ring size the policy will build.
func (p Policy) Limit() int {
	switch p.Kind {
	case NoExchange:
		return 0
	case PairwiseOnly:
		return 2
	default:
		return p.MaxRing
	}
}

// String renders the policy with the paper's labels.
func (p Policy) String() string {
	switch p.Kind {
	case NoExchange:
		return "no-exchange"
	case PairwiseOnly:
		return "pairwise"
	case ShortFirst:
		return fmt.Sprintf("2-%d-way", p.MaxRing)
	case LongFirst:
		return fmt.Sprintf("%d-2-way", p.MaxRing)
	default:
		return fmt.Sprintf("policy(%d)", int(p.Kind))
	}
}

// Want is one object a searching peer currently wants, together with the
// providers it discovered at lookup time. The paper notes the searcher "can
// use the original provider list to compute a cycle containing a peer P even
// if it did not originally transmit a request to P".
//
// Providers is a set held as a slice: the order of ids within a want is
// irrelevant (a duplicate is harmless); the order of the wants is the
// tie-break — a peer that provides two closes the ring on the earlier one.
type Want struct {
	Object    catalog.ObjectID
	Providers []PeerID
}

// Member is one position in an exchange ring: Peer uploads Gives to the next
// member (and downloads the previous member's Gives).
type Member struct {
	Peer  PeerID
	Gives catalog.ObjectID
}

// Ring is a feasible n-way exchange: Members[i] serves Members[(i+1) % n].
// A 2-member ring is a pairwise exchange.
type Ring struct {
	Members []Member
}

// Size returns the number of peers in the ring.
func (r *Ring) Size() int { return len(r.Members) }

// String renders the ring as "P0 -o0-> P1 -o1-> ... -> P0".
func (r *Ring) String() string {
	if len(r.Members) == 0 {
		return "ring{}"
	}
	s := ""
	for i, m := range r.Members {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("P%d -o%d->", m.Peer, m.Gives)
	}
	return s + fmt.Sprintf(" P%d", r.Members[0].Peer)
}

// SearchStats reports the cost of one ring search; the simulator sums these
// into its Result (Section V's search effort concern).
type SearchStats struct {
	NodesVisited int // request-graph nodes inspected
	// WantsChecked is the number of membership tests a want-by-want scan
	// makes: i+1 for a visited node matched at want i, len(wants) for one that
	// provides none. Searches resolve provider -> first want once and compute
	// the figure, so it compares with counts recorded when the scan still ran.
	WantsChecked int
	Candidates   int // ring-closing nodes found before policy selection
}
