package sim

import (
	"slices"
	"testing"

	"barter/internal/core"
)

// The engine removes elements from session/request/pending slices with the
// append(x[:i], x[i+1:]...) idiom, which shifts the tail in place: any alias
// of the same backing array observes the shift. The teardown paths
// (completeDownload, dissolveRing, evictFrom, DisconnectPeer) therefore
// iterate over snapshots — or over slices proven immutable during the walk,
// like a dissolving ring's session list. The tests in this file pin those
// proofs: the audit for this PR found no live mutation-during-iteration bug,
// and these regressions keep it that way.

// TestRemoveSessionShiftsAliases documents the aliasing hazard itself: after
// remove, a previously taken alias of the same backing array sees
// shifted contents, which is exactly why teardown paths snapshot first.
func TestRemoveSessionShiftsAliases(t *testing.T) {
	a, b, c := &session{}, &session{}, &session{}
	list := []*session{a, b, c}
	alias := list // same backing array, not a copy
	list = remove(list, a)
	if len(list) != 2 || list[0] != b || list[1] != c {
		t.Fatalf("remove result wrong: %v", list)
	}
	// The alias now sees the shifted tail — iterating it while removing
	// would skip elements. A snapshot (append to fresh/scratch storage)
	// does not.
	if alias[0] != b {
		t.Fatal("expected the alias to observe the in-place shift")
	}
	snap := append([]*session(nil), list...)
	list = remove(list, b)
	if snap[0] != b || snap[1] != c {
		t.Fatal("snapshot must be immune to later removals")
	}
	if len(list) != 1 || list[0] != c {
		t.Fatalf("second removal wrong: %v", list)
	}
}

// TestDissolveRingSliceIsNeverMutated pins the proof that lets dissolveRing
// iterate rs.sessions without a snapshot: terminateSession unlinks a session
// from its peers and its download, but must never touch the ring's own
// session list.
func TestDissolveRingSliceIsNeverMutated(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 21
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Step until some exchange ring exists, then tear one down by hand.
	var rs *ringState
	for steps := 0; steps < 2_000_000 && rs == nil; steps++ {
		if !s.Step() {
			break
		}
		for _, p := range s.peers {
			for _, up := range p.uploads {
				if up.ringSize > 1 && up.ring != nil && !up.ring.dissolved {
					rs = up.ring
					break
				}
			}
			if rs != nil {
				break
			}
		}
	}
	if rs == nil {
		t.Fatal("no exchange ring formed; config no longer exercises the path")
	}
	members := append([]*session(nil), rs.sessions...)
	s.dissolveRing(rs, true)
	if len(rs.sessions) != len(members) {
		t.Fatalf("dissolveRing mutated rs.sessions: %d -> %d entries", len(members), len(rs.sessions))
	}
	for i, sess := range rs.sessions {
		if sess != members[i] {
			t.Fatalf("rs.sessions[%d] changed identity during dissolution", i)
		}
		if !sess.closed {
			t.Fatalf("ring member %d not closed after dissolution", i)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after manual dissolution: %v", err)
	}
}

// TestMultiSessionDownloadTeardown drives a run until a download is fed by
// at least two concurrent sessions — the scenario where completeDownload's
// iteration races its own removals if it ever drops the snapshot — and then
// verifies the run continues consistently through that download's teardown.
func TestMultiSessionDownloadTeardown(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 22
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	observed := false
	for steps := 0; steps < 4_000_000; steps++ {
		if !s.Step() {
			break
		}
		if !observed {
			for _, p := range s.peers {
				for _, dl := range p.pending {
					if len(dl.sessions) >= 2 {
						observed = true
					}
				}
			}
			if observed {
				// Tight net around the teardown window that follows.
				for i := 0; i < 5_000 && s.Step(); i++ {
					if i%50 == 0 {
						if err := s.CheckInvariants(); err != nil {
							t.Fatalf("teardown window: %v", err)
						}
					}
				}
				break
			}
		}
	}
	if !observed {
		t.Fatal("no multi-session download occurred; config no longer exercises the path")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionWithActiveUploads squeezes storage so eviction sweeps
// constantly terminate live uploads (the evictFrom snapshot path) and
// verifies invariants hold across every sweep.
func TestEvictionWithActiveUploads(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 23
	cfg.StorageMinObjects = 3
	cfg.StorageMaxObjects = 6
	cfg.EvictionInterval = 120
	cfg.Duration = 10_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for s.Step() {
		steps++
		if steps%256 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d (t=%.0f): %v", steps, s.Now(), err)
			}
		}
		if s.Now() >= cfg.Duration {
			break
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAnnounceAppendsAreInvisibleToIteration pins the range semantics
// announceNewHolding relies on since dropping its defensive copies: appends
// during iteration land beyond the captured length and are not visited,
// while the visited prefix keeps its identity.
func TestAnnounceAppendsAreInvisibleToIteration(t *testing.T) {
	base := []int{1, 2, 3}
	seen := 0
	for range base {
		seen++
		base = append(base, 99) // may reallocate; iteration is unaffected
	}
	if seen != 3 {
		t.Fatalf("range visited %d elements, want the captured 3", seen)
	}
}

// TestInvariantsCatchBrokenProviderSet corrupts a pending download's provider
// list both ways the slice representation allows — a repeated id, an id no
// peer has — and expects CheckInvariants to refuse each.
func TestInvariantsCatchBrokenProviderSet(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 24
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dl *download
	for steps := 0; dl == nil && steps < 100_000 && s.Step(); steps++ {
		for _, p := range s.peers {
			for _, d := range p.pending {
				if len(d.providers) > 0 {
					dl = d
				}
			}
		}
	}
	if dl == nil {
		t.Fatal("no pending download with a provider; config no longer exercises the path")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sound := dl.providers
	for name, broken := range map[string][]core.PeerID{
		"duplicate":    append(slices.Clone(sound), sound[0]),
		"id too large": append(slices.Clone(sound), core.PeerID(cfg.NumPeers)),
		"negative id":  append(slices.Clone(sound), -1),
	} {
		dl.providers = broken
		if err := s.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants accepted providers %v", name, broken)
		}
	}
	dl.providers = sound
	dl.addProvider(sound[0])
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("addProvider of a known id broke the set: %v", err)
	}
}
