// Package bitset provides dense, fixed-universe bit sets.
//
// The liveness checker of Boissinot et al. stores one reduced-reachability
// set R_v and one back-edge-target set T_v per CFG node, both as bitsets
// indexed by dominance-tree preorder numbers (paper §5.1). The operations
// here mirror the primitives the paper's Algorithm 3 relies on, in
// particular NextSet, the Go analogue of the paper's bitset_next_set.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// None is returned by NextSet when no further bit is set. It plays the role
// of MAX_INT in the paper's pseudocode.
const None = int(^uint(0) >> 1)

// Set is a fixed-capacity bit set over the universe [0, Len()).
// The zero value is an empty set of capacity zero; use New for a sized set.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set holding elements in [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the universe size the set was created with.
func (s *Set) Len() int { return s.n }

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if uint(i) >= uint(s.n) {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if uint(i) >= uint(s.n) {
		panic("bitset: index " + strconv.Itoa(i) + " out of range [0," + strconv.Itoa(s.n) + ")")
	}
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Union adds every element of o to s and reports whether s changed.
// The sets must share the same universe size.
func (s *Set) Union(o *Set) bool {
	s.same(o)
	changed := false
	for i, w := range o.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Intersect removes from s every element not in o.
func (s *Set) Intersect(o *Set) {
	s.same(o)
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
}

// Subtract removes every element of o from s.
func (s *Set) Subtract(o *Set) {
	s.same(o)
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
}

// Intersects reports whether s and o share at least one element.
func (s *Set) Intersects(o *Set) bool {
	s.same(o)
	for i, w := range o.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// Copy overwrites s with the contents of o.
func (s *Set) Copy(o *Set) {
	s.same(o)
	copy(s.words, o.words)
}

// Clone returns a fresh set with the same universe and contents.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// Equal reports whether s and o contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is also in o.
func (s *Set) SubsetOf(o *Set) bool {
	s.same(o)
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

func (s *Set) same(o *Set) {
	if s.n != o.n {
		panic("bitset: universe size mismatch: " + strconv.Itoa(s.n) + " vs " + strconv.Itoa(o.n))
	}
}

// NextSet returns the position of the first set bit at or after from, or
// None when no further bit is set. It is the paper's bitset_next_set.
func (s *Set) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return None
	}
	wi := from / wordBits
	w := s.words[wi] >> uint(from%wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return None
}

// ForEach calls f for every element of the set in increasing order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			f(wi*wordBits + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Elements returns the elements of the set in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// WordBytes returns the memory footprint of the payload in bytes. Used by
// the benchmark harness to reproduce the paper's memory discussion (§6.1).
func (s *Set) WordBytes() int { return len(s.words) * 8 }

// TotalWordBytes sums WordBytes over slices of sets — the one definition of
// set-payload footprint every engine's MemoryBytes reports, so the §6.1
// cross-backend memory comparison can never use inconsistent accounting.
func TotalWordBytes(sets ...[]*Set) int {
	total := 0
	for _, ss := range sets {
		for _, s := range ss {
			total += s.WordBytes()
		}
	}
	return total
}

// String renders the set as {a, b, c} for debugging and test failures.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}
