package lease

import (
	"hash/fnv"
	"sort"
	"testing"
	"testing/quick"
)

func TestMapperIdentityGranularity(t *testing.T) {
	m := Mapper{} // NumClasses == 0: one class per item
	a := m.Classes([]string{"x"})
	b := m.Classes([]string{"y"})
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("classes: %v %v", a, b)
	}
	if a[0] == b[0] {
		t.Fatal("distinct items collided at identity granularity")
	}
	if got := m.Classes([]string{"x", "x", "x"}); len(got) != 1 {
		t.Fatalf("duplicates not merged: %v", got)
	}
}

func TestMapperModuloGranularity(t *testing.T) {
	m := Mapper{NumClasses: 4}
	classes := m.Classes([]string{"a", "b", "c", "d", "e", "f", "g", "h"})
	for _, c := range classes {
		if uint64(c) >= 4 {
			t.Fatalf("class %d out of range", c)
		}
	}
	if len(classes) > 4 {
		t.Fatalf("%d distinct classes from 4 buckets", len(classes))
	}
}

func TestSubsetAndIntersects(t *testing.T) {
	tests := []struct {
		a, b      []ConflictClass
		subsetAB  bool
		intersect bool
	}{
		{nil, nil, true, false},
		{nil, []ConflictClass{1}, true, false},
		{[]ConflictClass{1}, nil, false, false},
		{[]ConflictClass{1, 3}, []ConflictClass{1, 2, 3}, true, true},
		{[]ConflictClass{1, 4}, []ConflictClass{1, 2, 3}, false, true},
		{[]ConflictClass{5, 6}, []ConflictClass{1, 2, 3}, false, false},
		{[]ConflictClass{2}, []ConflictClass{2}, true, true},
	}
	for i, tt := range tests {
		if got := subset(tt.a, tt.b); got != tt.subsetAB {
			t.Errorf("case %d: subset(%v, %v) = %t", i, tt.a, tt.b, got)
		}
		if got := intersects(tt.a, tt.b); got != tt.intersect {
			t.Errorf("case %d: intersects(%v, %v) = %t", i, tt.a, tt.b, got)
		}
	}
}

// Property: Classes output is sorted and duplicate-free, and mapping is
// deterministic.
func TestQuickClassesSortedDeterministic(t *testing.T) {
	f := func(ids []string, n uint8) bool {
		m := Mapper{NumClasses: int(n % 16)}
		c1 := m.Classes(ids)
		c2 := m.Classes(ids)
		if len(c1) != len(c2) {
			return false
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				return false
			}
		}
		if !sort.SliceIsSorted(c1, func(i, j int) bool { return c1[i] < c1[j] }) {
			return false
		}
		for i := 1; i < len(c1); i++ {
			if c1[i] == c1[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the inlined hash is hash/fnv's FNV-1a, so classes are what they
// always were.
func TestQuickClassOfIsFNV1a(t *testing.T) {
	f := func(id string, n uint8) bool {
		h := fnv.New64a()
		_, _ = h.Write([]byte(id))
		want := h.Sum64()
		if n%16 > 0 {
			want %= uint64(n % 16)
		}
		return Mapper{NumClasses: int(n % 16)}.Class(id) == ConflictClass(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the classes of a sub-multiset are a subset of the classes of the
// full set (the invariant a kept lease depends on), and shared items always
// intersect.
func TestQuickSubsetOfUnion(t *testing.T) {
	f := func(a, b []string) bool {
		m := Mapper{}
		union := m.Classes(append(append([]string{}, a...), b...))
		ca := m.Classes(a)
		if !subset(ca, union) {
			return false
		}
		if len(a) > 0 {
			shared := m.Classes(a[:1])
			if !intersects(shared, ca) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
