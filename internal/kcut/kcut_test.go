package kcut

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// boundaryValues cross every decimal-width boundary the comparator has to
// get right: 9/10, 99/100, 1/10, 1/100 and their neighbours.
var boundaryValues = []int{0, 1, 2, 3, 8, 9, 10, 11, 12, 19, 20, 21, 90, 98, 99,
	100, 101, 109, 110, 199, 200, 999, 1000, 1001, 1009, 1010, 9999, 10000, 10001,
	99999, 100000, 1 << 20, 1<<31 - 1}

func randomLeaf(rng *rand.Rand) int {
	switch rng.Intn(3) {
	case 0:
		return boundaryValues[rng.Intn(len(boundaryValues))]
	case 1:
		return rng.Intn(130)
	default:
		return rng.Intn(20000)
	}
}

// sortedDistinct returns n distinct sorted leaves all greater than floor,
// or false when the draw collides too often.
func sortedDistinct(rng *rand.Rand, n, floor int) ([]int, bool) {
	seen := map[int]bool{}
	out := []int{}
	for tries := 0; len(out) < n && tries < 100; tries++ {
		v := randomLeaf(rng)
		if v <= floor || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	if len(out) < n {
		return nil, false
	}
	sort.Ints(out)
	return out, true
}

// randomPair draws two equal-length sorted leaf lists that first differ
// at position diffAt (diffAt == n means they are equal).
func randomPair(rng *rand.Rand, n, diffAt int) (a, b []int) {
	for {
		prefix, ok := sortedDistinct(rng, diffAt, -1)
		if !ok {
			continue
		}
		if diffAt == n {
			return prefix, append([]int(nil), prefix...)
		}
		floor := -1
		if diffAt > 0 {
			floor = prefix[diffAt-1]
		}
		ta, okA := sortedDistinct(rng, n-diffAt, floor)
		tb, okB := sortedDistinct(rng, n-diffAt, floor)
		if !okA || !okB || ta[0] == tb[0] {
			continue
		}
		a = append(append([]int(nil), prefix...), ta...)
		b = append(append([]int(nil), prefix...), tb...)
		return a, b
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// Compare on equal-length lists is exactly the byte order of their printed
// forms, whichever position the lists first differ at.
func TestComparePrintedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	counts := map[string]int{}
	for trial := 0; trial < 24000; trial++ {
		n := 1 + rng.Intn(MaxLeaves)
		var diffAt int
		switch trial % 4 {
		case 0, 1:
			diffAt = n - 1 // first difference at the last position
		case 2:
			diffAt = rng.Intn(n) // anywhere, often earlier
		default:
			if n == 1 {
				diffAt = 0
			} else {
				diffAt = rng.Intn(n - 1) // strictly before the last position
			}
		}
		if trial%97 == 0 {
			diffAt = n // equal lists
		}
		a, b := randomPair(rng, n, diffAt)
		want := strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
		got := Compare(Of(a...), Of(b...))
		if got != want {
			t.Fatalf("Compare(%v, %v) = %d, printed order gives %d", a, b, got, want)
		}
		if back := Compare(Of(b...), Of(a...)); back != -want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", b, a, back, -want)
		}
		switch {
		case diffAt == n:
			counts["equal"]++
		case diffAt == n-1:
			counts["last"]++
		default:
			counts["earlier"]++
		}
	}
	for _, k := range []string{"equal", "last", "earlier"} {
		if counts[k] < 200 {
			t.Fatalf("only %d %q pairs drawn: %v", counts[k], k, counts)
		}
	}
}

// The cases the printed order gets "wrong" numerically are pinned here.
func TestComparePrintedExamples(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{[]int{10, 30}, []int{2, 5}, -1},  // "[10 " < "[2 "
		{[]int{1, 10}, []int{1, 9}, -1},   // "10]" < "9]"
		{[]int{0, 100}, []int{0, 10}, -1}, // "100]" < "10]": '0' < ']'
		{[]int{1, 5}, []int{10, 11}, -1},  // "1 " < "10": ' ' < '0'
		{[]int{100}, []int{99}, -1},       // "100]" < "99]"
		{[]int{1}, []int{100}, 1},         // "1]" > "10": ']' > '0'
		{[]int{4}, []int{4, 5}, -1},       // fewer leaves first
		{[]int{7, 12}, []int{7, 12}, 0},   // equal
		{[]int{0, 1}, []int{0, 10}, 1},    // "1]" > "10"
		{[]int{12, 13}, []int{123, 124}, -1},
	}
	for _, c := range cases {
		if got := Compare(Of(c.a...), Of(c.b...)); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if len(c.a) == len(c.b) {
			if p := sign(strings.Compare(fmt.Sprint(c.a), fmt.Sprint(c.b))); p != c.want {
				t.Errorf("pinned case %v %v disagrees with fmt: %d", c.a, c.b, p)
			}
		}
	}
}

func TestMergeAndSubset(t *testing.T) {
	a, b := Of(1, 4, 9), Of(2, 4, 12)
	m, ok := Merge(a, b, 6)
	if !ok || m != Of(1, 2, 4, 9, 12) {
		t.Fatalf("Merge = %v %v", m.Ints(), ok)
	}
	if _, ok := Merge(a, b, 4); ok {
		t.Fatal("Merge over k accepted")
	}
	if !a.SubsetOf(m) || !b.SubsetOf(m) || m.SubsetOf(a) || !(Leaves{}).SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	if m.Index(9) != 3 || m.Index(5) != -1 {
		t.Fatal("Index wrong")
	}
	// 1, 65 and 129 share a signature bit: the signature screens, the
	// leaves decide.
	c := Of(1, 65)
	if Of(129).SubsetOf(c) || !Of(65).SubsetOf(c) || c.SubsetOf(Of(1, 129)) {
		t.Fatal("SubsetOf trusted a colliding signature")
	}
	if u, ok := Merge(c, Of(129), 3); !ok || u != Of(1, 65, 129) || u.sig != Of(1).sig {
		t.Fatalf("Merge of colliding leaves = %v %v", u.Ints(), ok)
	}
	if m.sig != a.sig|b.sig {
		t.Fatal("Merge: signature is not the union")
	}
	if s := Of(1, 2, 65, 100).Select(0b1010); s != Of(2, 100) {
		t.Fatalf("Select = %v", s.Ints())
	}
}
