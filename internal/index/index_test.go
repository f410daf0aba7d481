package index

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSetBasics(t *testing.T) {
	var s Set[int32]
	if s.Len() != 0 || s.Contains(0) {
		t.Fatal("zero set not empty")
	}
	if !s.Add(5) || s.Add(5) {
		t.Fatal("Add reported wrong presence")
	}
	if !s.Contains(5) || s.Contains(4) {
		t.Fatal("Contains wrong after Add")
	}
	if !s.Remove(5) || s.Remove(5) {
		t.Fatal("Remove reported wrong presence")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after removing everything", s.Len())
	}
	if s.Remove(1 << 20) {
		t.Fatal("Remove of never-grown id reported present")
	}
}

func TestSetAscendingIteration(t *testing.T) {
	var s Set[int32]
	ids := []int32{700, 0, 63, 64, 65, 128, 1, 699}
	for _, id := range ids {
		s.Add(id)
	}
	want := append([]int32(nil), ids...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	var got []int32
	s.ForEach(func(id int32) bool { got = append(got, id); return true })
	if len(got) != len(want) {
		t.Fatalf("ForEach yielded %d ids, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
	got2 := s.AppendTo(nil)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("AppendTo order %v, want %v", got2, want)
		}
	}
}

func TestSetForEachEarlyStop(t *testing.T) {
	var s Set[int]
	for i := 0; i < 10; i++ {
		s.Add(i * 7)
	}
	var got []int
	s.ForEach(func(id int) bool {
		got = append(got, id)
		return len(got) < 3
	})
	if len(got) != 3 || got[0] != 0 || got[1] != 7 || got[2] != 14 {
		t.Fatalf("early stop yielded %v", got)
	}
}

// TestSetAgainstReference drives random add/remove traffic and cross-checks
// membership, size, and iteration order against a plain map reference.
func TestSetAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var s Set[int32]
	ref := make(map[int32]bool)
	for op := 0; op < 100000; op++ {
		id := int32(r.Intn(2000))
		if r.Intn(2) == 0 {
			if s.Add(id) == ref[id] {
				t.Fatalf("op %d: Add(%d) presence mismatch", op, id)
			}
			ref[id] = true
		} else {
			if s.Remove(id) != ref[id] {
				t.Fatalf("op %d: Remove(%d) presence mismatch", op, id)
			}
			delete(ref, id)
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, reference has %d", s.Len(), len(ref))
	}
	want := make([]int32, 0, len(ref))
	for id := range ref {
		want = append(want, id)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := s.AppendTo(make([]int32, 0, len(ref)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration diverges from sorted reference at %d", i)
		}
	}
}

func TestMultimapBasics(t *testing.T) {
	m := NewMultimap[uint32, int32]()
	if m.Get(7) != nil || len(m.m) != 0 {
		t.Fatal("empty multimap reports contents")
	}
	if !m.Add(7, 3) || m.Add(7, 3) {
		t.Fatal("Add presence wrong")
	}
	m.Add(7, 1)
	m.Add(9, 3)
	if len(m.m) != 2 || m.Get(7).Len() != 2 || m.Get(9).Len() != 1 {
		t.Fatalf("keys/Len wrong: keys=%d len7=%d len9=%d", len(m.m), m.Get(7).Len(), m.Get(9).Len())
	}
	got := m.Get(7).AppendTo(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Get(7) order = %v, want [1 3]", got)
	}
	if !m.Remove(7, 1) || m.Remove(7, 1) {
		t.Fatal("Remove presence wrong")
	}
	if m.Remove(8, 1) {
		t.Fatal("Remove on absent key reported present")
	}
}

// TestMultimapRecyclesEmptySets pins the free-list behavior: a key whose set
// empties out releases the set for reuse, and the key disappears.
func TestMultimapRecyclesEmptySets(t *testing.T) {
	m := NewMultimap[int, int32]()
	m.Add(1, 42)
	s := m.Get(1)
	m.Remove(1, 42)
	if m.Get(1) != nil || len(m.m) != 0 {
		t.Fatal("emptied key still present")
	}
	m.Add(2, 7)
	if m.Get(2) != s {
		t.Fatal("emptied set was not recycled for the next key")
	}
	if got := m.Get(2).AppendTo(nil); len(got) != 1 || got[0] != 7 {
		t.Fatalf("recycled set contents = %v, want [7]", got)
	}
}

// TestMultimapAgainstReference drives random traffic over many keys against
// a map-of-maps reference.
func TestMultimapAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := NewMultimap[int, int32]()
	ref := make(map[int]map[int32]bool)
	for op := 0; op < 100000; op++ {
		k := r.Intn(50)
		id := int32(r.Intn(300))
		if r.Intn(2) == 0 {
			if ref[k] == nil {
				ref[k] = make(map[int32]bool)
			}
			if m.Add(k, id) == ref[k][id] {
				t.Fatalf("op %d: Add(%d,%d) mismatch", op, k, id)
			}
			ref[k][id] = true
		} else {
			if m.Remove(k, id) != ref[k][id] {
				t.Fatalf("op %d: Remove(%d,%d) mismatch", op, k, id)
			}
			delete(ref[k], id)
			if len(ref[k]) == 0 {
				delete(ref, k)
			}
		}
	}
	if len(m.m) != len(ref) {
		t.Fatalf("%d keys, reference has %d", len(m.m), len(ref))
	}
	for k, ids := range ref {
		want := make([]int32, 0, len(ids))
		for id := range ids {
			want = append(want, id)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := m.Get(k).AppendTo(nil)
		if len(got) != len(want) {
			t.Fatalf("key %d: %d ids, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("key %d: iteration diverges from sorted reference", k)
			}
		}
	}
}

func BenchmarkSetAddRemove(b *testing.B) {
	var s Set[int32]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := int32(i % 4096)
		s.Add(id)
		s.Remove(id)
	}
}

func BenchmarkSetAppendTo(b *testing.B) {
	var s Set[int32]
	for i := 0; i < 4096; i += 3 {
		s.Add(int32(i))
	}
	buf := make([]int32, 0, s.Len())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = s.AppendTo(buf[:0])
	}
	_ = buf
}
