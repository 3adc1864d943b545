package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset backed by a []uint64.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set capable of holding bits [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i to 1.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear sets bit i to 0.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is 1.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Or sets s to s ∪ other.
func (s *Set) Or(other *Set) {
	s.sameLen(other)
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// And sets s to s ∩ other.
func (s *Set) And(other *Set) {
	s.sameLen(other)
	for i, w := range other.words {
		s.words[i] &= w
	}
}

// AndNot sets s to s \ other.
func (s *Set) AndNot(other *Set) {
	s.sameLen(other)
	for i, w := range other.words {
		s.words[i] &^= w
	}
}

// Intersects reports whether s ∩ other is non-empty.
func (s *Set) Intersects(other *Set) bool {
	s.sameLen(other)
	for i, w := range other.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// Contains reports whether every bit of other is also set in s.
func (s *Set) Contains(other *Set) bool {
	s.sameLen(other)
	for i, w := range other.words {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and other hold exactly the same bits.
func (s *Set) Equal(other *Set) bool {
	if s.n != other.n {
		return false
	}
	for i, w := range other.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// CountRange returns the number of set bits in [lo, hi). It reads only the
// words the range touches: the two end words are masked, and the whole
// words between them are counted four at a time so the popcounts pipeline
// (on amd64 each OnesCount64 compiles to a single POPCNT).
func (s *Set) CountRange(lo, hi int) int {
	if lo < 0 || hi > s.n || lo > hi {
		panic(fmt.Sprintf("bitset: range [%d,%d) out of [0,%d)", lo, hi, s.n))
	}
	if lo == hi {
		return 0
	}
	lw, hw := lo/wordBits, (hi-1)/wordBits
	first := s.words[lw] &^ (1<<uint(lo%wordBits) - 1)
	last := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if lw == hw {
		return bits.OnesCount64(first & last)
	}
	c := bits.OnesCount64(first) + bits.OnesCount64(s.words[hw]&last)
	mid := s.words[lw+1 : hw]
	i := 0
	for ; i+4 <= len(mid); i += 4 {
		c += bits.OnesCount64(mid[i]) +
			bits.OnesCount64(mid[i+1]) +
			bits.OnesCount64(mid[i+2]) +
			bits.OnesCount64(mid[i+3])
	}
	for ; i < len(mid); i++ {
		c += bits.OnesCount64(mid[i])
	}
	return c
}

func (s *Set) sameLen(other *Set) {
	if len(s.words) != len(other.words) {
		panic(fmt.Sprintf("bitset: mismatched capacities %d vs %d", s.n, other.n))
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ForEach calls fn for every set bit in ascending order. If fn returns false
// the iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Members returns the indices of all set bits in ascending order.
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// NextSet returns the index of the first set bit at or after i, or -1.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// String renders the set as {a, b, c}.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}

// FromMembers builds a set of capacity n containing the given members.
func FromMembers(n int, members ...int) *Set {
	s := New(n)
	for _, m := range members {
		s.Set(m)
	}
	return s
}
