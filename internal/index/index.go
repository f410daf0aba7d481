// Package index provides the simulator's incremental lookup indexes: dense
// integer-id sets with O(1) add/remove and deterministic ascending-order
// iteration.
//
// The engine keeps its object -> holders and object -> wanters indexes as
// one Set per object id, in a slice sized from the catalog: object ids are
// dense too, so looking an object up is an index, not a hash. Peer ids are
// small dense integers, so a bitset gives the deterministic ascending
// iteration order the determinism contract depends on — candidate order
// feeds the engine's RNG draws — with constant-time updates and no
// per-update allocation once a set has grown to its largest id.
//
// Multimap maps an arbitrary comparable key to such sets, for keys that are
// not dense; only the benchmark's index probes use it.
package index

import "math/bits"

// ID is any integer type used as a dense, non-negative identifier.
type ID interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Set is a bitset of dense non-negative ids. The zero value is an empty set
// ready for use. Iteration order is always ascending id order.
type Set[T ID] struct {
	words []uint64
	n     int
}

// Len returns the number of ids in the set.
func (s *Set[T]) Len() int { return s.n }

// Add inserts id and reports whether it was absent.
func (s *Set[T]) Add(id T) bool {
	w, b := int(id)>>6, uint(id)&63
	if w >= len(s.words) {
		s.grow(w + 1)
	}
	if s.words[w]&(1<<b) != 0 {
		return false
	}
	s.words[w] |= 1 << b
	s.n++
	return true
}

// Remove deletes id and reports whether it was present.
func (s *Set[T]) Remove(id T) bool {
	w, b := int(id)>>6, uint(id)&63
	if w >= len(s.words) || s.words[w]&(1<<b) == 0 {
		return false
	}
	s.words[w] &^= 1 << b
	s.n--
	return true
}

// Contains reports whether id is in the set.
func (s *Set[T]) Contains(id T) bool {
	w, b := int(id)>>6, uint(id)&63
	return w < len(s.words) && s.words[w]&(1<<b) != 0
}

// ForEach calls fn for every id in ascending order until fn returns false.
func (s *Set[T]) ForEach(fn func(id T) bool) {
	for w, word := range s.words {
		base := T(w << 6)
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if !fn(base + T(b)) {
				return
			}
			word &= word - 1
		}
	}
}

// AppendTo appends the set's ids to dst in ascending order and returns the
// extended slice. Callers reuse dst as a scratch buffer to keep iteration
// allocation-free.
func (s *Set[T]) AppendTo(dst []T) []T {
	for w, word := range s.words {
		base := T(w << 6)
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, base+T(b))
			word &= word - 1
		}
	}
	return dst
}

func (s *Set[T]) grow(words int) {
	if cap(s.words) >= words {
		s.words = s.words[:words]
		return
	}
	nw := make([]uint64, words, 2*words)
	copy(nw, s.words)
	s.words = nw
}

// Multimap maps a comparable key to a Set of ids. Sets that empty out are
// returned to an internal free list so a workload that cycles keys (objects
// gaining and losing their last holder) stays allocation-free at steady
// state. The zero value is not usable; call NewMultimap.
type Multimap[K comparable, V ID] struct {
	m    map[K]*Set[V]
	free []*Set[V]
}

// NewMultimap returns an empty multimap.
//
//barter:allow deadcode bench/probes.go's index.* probes time it; item 7(b) retargets them and deletes Multimap
func NewMultimap[K comparable, V ID]() *Multimap[K, V] {
	return &Multimap[K, V]{m: make(map[K]*Set[V])}
}

// Add inserts id under key and reports whether it was absent.
//
//barter:allow deadcode bench/probes.go's index.* probes; item 7(b)
func (m *Multimap[K, V]) Add(key K, id V) bool {
	s := m.m[key]
	if s == nil {
		if n := len(m.free); n > 0 {
			s = m.free[n-1]
			m.free[n-1] = nil
			m.free = m.free[:n-1]
		} else {
			s = &Set[V]{}
		}
		m.m[key] = s
	}
	return s.Add(id)
}

// Remove deletes id under key and reports whether it was present. A set that
// empties out is detached from the key and recycled.
//
//barter:allow deadcode bench/probes.go's index.* probes; item 7(b)
func (m *Multimap[K, V]) Remove(key K, id V) bool {
	s := m.m[key]
	if s == nil || !s.Remove(id) {
		return false
	}
	if s.n == 0 {
		delete(m.m, key)
		m.free = append(m.free, s)
	}
	return true
}

// Get returns the set under key, or nil when the key has no ids. The returned
// set must not be retained across Remove calls that could empty it: emptied
// sets are recycled for other keys.
func (m *Multimap[K, V]) Get(key K) *Set[V] { return m.m[key] }
