package sim

import (
	"testing"

	"barter/internal/catalog"
	"barter/internal/workload"
)

// TestTiesAtAnInstant pins the tie rule at the instant a download's last
// block lands: every block at or before now has arrived, so the download
// completes at that instant, whatever else happens at it, and no session
// starts for a download that is already whole. Each world is a hand-built
// trace of 10-block objects at one block per second.
func TestTiesAtAnInstant(t *testing.T) {
	cases := []struct {
		name   string
		record func(rec *workload.Recorder)
		slots  int      // upload slots per peer
		at     float64  // the instant the last blocks land
		stored [][2]int // (peer, object) pairs stored from at on
		plain  int      // non-exchange sessions the run logs
	}{
		// Two peers swap objects of one size in a pairwise ring started at
		// t=10, so both last blocks land at t=20. Whichever download
		// completes first dissolves the ring; its partner is whole too, so
		// the freed slot must not serve it. The one plain session is peer
		// 1's upload at t=10, which the ring replaced.
		{"ring-of-two", func(rec *workload.Recorder) {
			rec.Hold(0, 1)
			rec.Hold(1, 2)
			rec.Request(10, 0, 2)
			rec.Request(10, 1, 1)
		}, 2, 20, [][2]int{{0, 2}, {1, 1}}, 1},
		// Peer 0 uploads to peer 1 from t=10 and departs at t=20, the
		// instant the last block lands.
		{"uploader-departs", func(rec *workload.Recorder) {
			rec.Hold(0, 1)
			rec.Request(10, 1, 1)
			rec.Depart(20, 0)
		}, 2, 20, [][2]int{{1, 1}}, 1},
		// Peer 0's one slot uploads to peer 1 from t=10. Peer 2 queued for
		// peer 0's object at t=15; at t=20 peer 0 asks peer 2 for its
		// object, and the pairwise ring that closes would preempt the
		// upload whose last block lands then. The slot the completion frees
		// serves peer 2 first; the ring then replaces that session and ends
		// at t=30 with both downloads whole, so no third one starts.
		{"preempted-by-ring", func(rec *workload.Recorder) {
			rec.Hold(0, 1)
			rec.Hold(2, 3)
			rec.Request(10, 1, 1)
			rec.Request(15, 2, 1)
			rec.Request(20, 0, 3)
		}, 1, 20, [][2]int{{1, 1}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := workload.NewRecorder()
			tc.record(rec)
			cfg := DefaultConfig()
			cfg.Trace = rec.Trace(workload.Header{Nodes: 3, Objects: 4, ObjectKbits: 100, BlockKbits: 10, Horizon: 100})
			cfg.UploadKbps = float64(tc.slots) * cfg.SlotKbps
			cfg.WarmupFrac = 0
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.RunUntil(tc.at - 0.5)
			for _, po := range tc.stored {
				if s.peers[po[0]].has(catalog.ObjectID(po[1])) {
					t.Fatalf("peer %d stores object %d before t=%v", po[0], po[1], tc.at)
				}
			}
			s.RunUntil(tc.at)
			for _, po := range tc.stored {
				p := s.peers[po[0]]
				if !p.has(catalog.ObjectID(po[1])) {
					t.Errorf("t=%v: peer %d does not store object %d (pending %v)", tc.at, po[0], po[1], p.pendingFor(catalog.ObjectID(po[1])) != nil)
				}
				for _, q := range s.peers {
					for _, up := range q.uploads {
						if up.dst == p.id && up.object == catalog.ObjectID(po[1]) {
							t.Errorf("t=%v: peer %d still downloads object %d from peer %d", tc.at, po[0], po[1], q.id)
						}
					}
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := res.SessionCount[TypeNonExchange]; got != tc.plain {
				t.Errorf("%d non-exchange sessions, want %d", got, tc.plain)
			}
		})
	}
}
