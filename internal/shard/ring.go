// Package shard maps application keys to groups. The router is a
// consistent-hash ring: each group owns many pseudo-random points on a
// 64-bit circle and a key belongs to the group owning the first point at
// or after the key's hash. Routing is deterministic across processes
// (every node builds an identical ring from the group list alone) and
// stable under resharding: adding or removing one group remaps only the
// keys adjacent to the moved points, ~1/N of the keyspace.
package shard

import (
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/types"
)

// DefaultReplicas is the number of ring points per group. More points
// smooth the per-group share of the keyspace; 128 keeps the worst-case
// imbalance within a few percent for small group counts.
const DefaultReplicas = 128

type point struct {
	h uint64
	g types.GroupID
}

// Ring is an immutable consistent-hash router over a set of groups.
type Ring struct {
	points []point
	groups []types.GroupID
}

// NewRing builds the ring for the given groups with DefaultReplicas points
// per group. The group list is canonicalized so every process derives the
// identical ring. A single group owns every key, so its ring has no points.
func NewRing(groups []types.GroupID) *Ring {
	gs := types.DedupGroups(append([]types.GroupID(nil), groups...))
	r := &Ring{groups: gs}
	if len(gs) < 2 {
		return r
	}
	r.points = make([]point, 0, len(gs)*DefaultReplicas)
	for _, g := range gs {
		base := "g" + strconv.Itoa(int(g)) + "#"
		for i := 0; i < DefaultReplicas; i++ {
			r.points = append(r.points, point{h: hash64(base + strconv.Itoa(i)), g: g})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// Full-hash collisions between distinct vnode labels are
		// vanishingly rare; break them by group id so the order — and
		// therefore the routing — is still canonical.
		return r.points[i].g < r.points[j].g
	})
	return r
}

// Groups returns the ring's groups (sorted; read-only).
func (r *Ring) Groups() []types.GroupID { return r.groups }

// Group routes a key: the group owning the first ring point at or after
// the key's hash, wrapping at the top of the circle. A ring without points
// routes every key to its one group, or to group 0 if it has none.
func (r *Ring) Group(key string) types.GroupID {
	if len(r.points) == 0 {
		if len(r.groups) == 1 {
			return r.groups[0]
		}
		return 0
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].g
}

func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	return mix64(f.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV-1a alone clusters on short,
// similar strings (the vnode labels differ in a few trailing bytes), which
// skews the arc lengths badly; the finalizer's avalanche spreads them.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
