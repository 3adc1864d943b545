package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Count() != 0 {
		t.Fatalf("new set not empty: count=%d", s.Count())
	}
	if s.Any() {
		t.Fatal("new set reports Any()=true")
	}
	if s.Len() != 100 {
		t.Fatalf("Len=%d want 100", s.Len())
	}
}

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count=%d want 8", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count=%d want 7", got)
	}
}

func TestSetIdempotent(t *testing.T) {
	s := New(10)
	s.Set(3)
	s.Set(3)
	if s.Count() != 1 {
		t.Fatalf("Count=%d want 1", s.Count())
	}
	s.Clear(3)
	s.Clear(3)
	if s.Count() != 0 {
		t.Fatalf("Count=%d want 0", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, i := range []int{-1, 10, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for index %d", i)
				}
			}()
			s.Set(i)
		}()
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for New(-1)")
		}
	}()
	New(-1)
}

func TestOrAndAndNot(t *testing.T) {
	a := FromMembers(200, 1, 5, 70, 150)
	b := FromMembers(200, 5, 71, 150, 199)

	u := a.Clone()
	u.Or(b)
	want := []int{1, 5, 70, 71, 150, 199}
	if got := u.Members(); !intsEqual(got, want) {
		t.Fatalf("Or members=%v want %v", got, want)
	}

	i := a.Clone()
	i.And(b)
	if got := i.Members(); !intsEqual(got, []int{5, 150}) {
		t.Fatalf("And members=%v", got)
	}

	d := a.Clone()
	d.AndNot(b)
	if got := d.Members(); !intsEqual(got, []int{1, 70}) {
		t.Fatalf("AndNot members=%v", got)
	}
}

func TestIntersectsContains(t *testing.T) {
	a := FromMembers(100, 1, 2, 3)
	b := FromMembers(100, 3, 4)
	c := FromMembers(100, 4, 5)
	if !a.Intersects(b) {
		t.Fatal("a should intersect b")
	}
	if a.Intersects(c) {
		t.Fatal("a should not intersect c")
	}
	if !a.Contains(FromMembers(100, 1, 3)) {
		t.Fatal("a should contain {1,3}")
	}
	if a.Contains(b) {
		t.Fatal("a should not contain b")
	}
	empty := New(100)
	if !a.Contains(empty) {
		t.Fatal("every set contains the empty set")
	}
}

func TestEqual(t *testing.T) {
	a := FromMembers(100, 1, 99)
	b := FromMembers(100, 1, 99)
	c := FromMembers(100, 1)
	if !a.Equal(b) {
		t.Fatal("a != b")
	}
	if a.Equal(c) {
		t.Fatal("a == c")
	}
	if a.Equal(FromMembers(101, 1, 99)) {
		t.Fatal("sets of different capacity compared equal")
	}
}

func TestMismatchedCapacityPanics(t *testing.T) {
	a := New(64)
	b := New(129)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched Or")
		}
	}()
	a.Or(b)
}

func TestCloneIndependence(t *testing.T) {
	a := FromMembers(64, 1, 2)
	b := a.Clone()
	b.Set(3)
	if a.Test(3) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReset(t *testing.T) {
	a := FromMembers(64, 0, 63)
	a.Reset()
	if a.Any() {
		t.Fatal("Reset left bits set")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	a := FromMembers(64, 1, 2, 3, 4)
	var seen []int
	a.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !intsEqual(seen, []int{1, 2}) {
		t.Fatalf("early stop saw %v", seen)
	}
}

func TestNextSet(t *testing.T) {
	a := FromMembers(200, 0, 64, 130)
	cases := []struct{ from, want int }{
		{-5, 0}, {0, 0}, {1, 64}, {64, 64}, {65, 130}, {130, 130}, {131, -1}, {500, -1},
	}
	for _, c := range cases {
		if got := a.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d)=%d want %d", c.from, got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	if got := FromMembers(10, 1, 3).String(); got != "{1, 3}" {
		t.Fatalf("String=%q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Fatalf("empty String=%q", got)
	}
}

// Property: Members of FromMembers round-trips a deduplicated sorted list.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 1 << 16
		s := New(n)
		uniq := map[int]bool{}
		for _, r := range raw {
			s.Set(int(r))
			uniq[int(r)] = true
		}
		if s.Count() != len(uniq) {
			return false
		}
		for _, m := range s.Members() {
			if !uniq[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan-ish identity |A∪B| = |A| + |B| - |A∩B|.
func TestQuickInclusionExclusion(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rnd.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rnd.Intn(2) == 0 {
				a.Set(i)
			}
			if rnd.Intn(2) == 0 {
				b.Set(i)
			}
		}
		u := a.Clone()
		u.Or(b)
		x := a.Clone()
		x.And(b)
		if u.Count() != a.Count()+b.Count()-x.Count() {
			t.Fatalf("inclusion-exclusion failed n=%d", n)
		}
	}
}

// Property: AndNot(b) then Intersects(b) is always false.
func TestQuickAndNotDisjoint(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rnd.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rnd.Intn(2) == 0 {
				a.Set(i)
			}
			if rnd.Intn(3) == 0 {
				b.Set(i)
			}
		}
		a.AndNot(b)
		if a.Intersects(b) {
			t.Fatalf("AndNot result intersects subtrahend n=%d", n)
		}
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCountRange checks CountRange against a naive loop over every range
// [lo, hi) of sets whose lengths put the last word at 1, 63, 64 and a few
// partial widths — so empty ranges, ranges inside one word, ranges that
// start or end on a word boundary and ranges reaching the last partial word
// are all covered — on a random fill and on a full set (where a wrong end
// mask shows). Ranges outside [0, n) and reversed ones panic.
func TestCountRange(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 63, 64, 65, 128, 130, 200} {
		random, full := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) != 0 {
				random.Set(i)
			}
			full.Set(i)
		}
		for _, s := range []*Set{random, full} {
			for lo := 0; lo <= n; lo++ {
				want := 0
				for hi := lo; hi <= n; hi++ {
					if hi > lo && s.Test(hi-1) {
						want++
					}
					if got := s.CountRange(lo, hi); got != want {
						t.Fatalf("n=%d %v: CountRange(%d,%d)=%d, naive %d", n, s, lo, hi, got, want)
					}
				}
			}
		}
	}
	s := New(130)
	for _, r := range [][2]int{{-1, 3}, {0, 131}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for range [%d,%d)", r[0], r[1])
				}
			}()
			s.CountRange(r[0], r[1])
		}()
	}
}
