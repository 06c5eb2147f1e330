package shard

import (
	"strconv"
	"testing"

	"repro/internal/types"
)

// TestRoutingDeterministic checks that independently built rings agree on
// every key — the property that lets every node route without
// coordination.
func TestRoutingDeterministic(t *testing.T) {
	a := NewRing(types.RangeGroups(4))
	b := NewRing([]types.GroupID{3, 1, 2, 0, 2}) // unsorted, duplicated
	for i := 0; i < 1000; i++ {
		k := "key-" + strconv.Itoa(i)
		if a.Group(k) != b.Group(k) {
			t.Fatalf("rings disagree on %q: %v vs %v", k, a.Group(k), b.Group(k))
		}
	}
}

// TestRoutingBalance checks the vnode smoothing: no group owns more than
// twice nor less than half its fair share of a large key sample.
func TestRoutingBalance(t *testing.T) {
	const keys = 20000
	for _, n := range []int{2, 4, 8} {
		r := NewRing(types.RangeGroups(n))
		counts := make(map[types.GroupID]int)
		for i := 0; i < keys; i++ {
			counts[r.Group("user:"+strconv.Itoa(i))]++
		}
		fair := keys / n
		for g, c := range counts {
			if c < fair/2 || c > fair*2 {
				t.Fatalf("n=%d: group %v owns %d of %d keys (fair %d)", n, g, c, keys, fair)
			}
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d groups received keys", n, len(counts))
		}
	}
}

// TestReshardStability checks the consistent-hash property: growing from
// 4 to 5 groups moves roughly 1/5 of the keys, and every moved key moves
// to the new group (no shuffling between surviving groups).
func TestReshardStability(t *testing.T) {
	const keys = 10000
	before := NewRing(types.RangeGroups(4))
	after := NewRing(types.RangeGroups(5))
	moved := 0
	for i := 0; i < keys; i++ {
		k := "item/" + strconv.Itoa(i)
		gb, ga := before.Group(k), after.Group(k)
		if gb != ga {
			moved++
			if ga != 4 {
				t.Fatalf("key %q moved between surviving groups: %v -> %v", k, gb, ga)
			}
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Fatalf("moved %d of %d keys; want ~%d", moved, keys, keys/5)
	}
}

// TestEmptyRing checks the degenerate ring routes everything to group 0
// rather than panicking.
func TestEmptyRing(t *testing.T) {
	r := NewRing(nil)
	if g := r.Group("x"); g != 0 {
		t.Fatalf("empty ring routed to %v", g)
	}
}

// TestSingleGroupRingHasNoPoints checks that a one-group ring routes every
// key to its group without building any points.
func TestSingleGroupRingHasNoPoints(t *testing.T) {
	r := NewRing([]types.GroupID{3})
	if len(r.points) != 0 {
		t.Fatalf("one-group ring built %d points", len(r.points))
	}
	for i := 0; i < 100; i++ {
		if g := r.Group("k" + strconv.Itoa(i)); g != 3 {
			t.Fatalf("one-group ring routed to %v", g)
		}
	}
}
