package tocore

import (
	"maps"
	"slices"

	"repro/internal/types"
)

// runKey names one run of labels: those a single origin assigned in a
// single view. Figure 5 numbers them 1, 2, 3, ... in labelling order.
type runKey struct {
	id     types.ViewID
	origin types.ProcID
}

// labelMap is a finite map from labels to V, the representation of both
// the content relation (V = string) and the safe-labels set (V = struct{}).
//
// Labels of one run reach a node in seqno order almost always (per-view
// FIFO delivery, summaries that cover whole prefixes), so the map keeps
// the values of seqnos 1..k of every run in one slice: runs[k][i] is the
// value of label (k.id, i+1, k.origin). For V = struct{} that slice has
// no backing storage, so a run of safe labels costs one prefix length.
// Every other label — a seqno ≤ 0, or one past a gap in its run — sits in
// extra until the gap below it closes. Invariant: no label of extra has a
// seqno in 1..len(runs[k])+1. Each label therefore lives in exactly one
// place, the layout is a function of the domain alone, and no input
// allocates memory in proportion to a gap. Both maps are allocated on
// first use.
type labelMap[V any] struct {
	runs  map[runKey][]V
	extra map[types.Label]V
}

func keyOf(l types.Label) runKey { return runKey{id: l.ID, origin: l.Origin} }

// get returns the value associated with l.
func (m *labelMap[V]) get(l types.Label) (V, bool) {
	if run := m.runs[keyOf(l)]; l.Seqno >= 1 && l.Seqno <= len(run) {
		return run[l.Seqno-1], true
	}
	v, ok := m.extra[l]
	return v, ok
}

// has reports whether l is in the domain.
func (m *labelMap[V]) has(l types.Label) bool {
	_, ok := m.get(l)
	return ok
}

// put associates v with l, replacing any previous value.
func (m *labelMap[V]) put(l types.Label, v V) {
	k := keyOf(l)
	run := m.runs[k]
	switch {
	case l.Seqno >= 1 && l.Seqno <= len(run):
		run[l.Seqno-1] = v
		return
	case l.Seqno != len(run)+1:
		if m.extra == nil {
			m.extra = make(map[types.Label]V)
		}
		m.extra[l] = v
		return
	}
	run = append(run, v)
	// The run grew to meet labels parked past its old end: absorb them.
	for len(m.extra) > 0 {
		next := types.Label{ID: l.ID, Seqno: len(run) + 1, Origin: l.Origin}
		w, ok := m.extra[next]
		if !ok {
			break
		}
		delete(m.extra, next)
		run = append(run, w)
	}
	if m.runs == nil {
		m.runs = make(map[runKey][]V)
	}
	m.runs[k] = run
}

// size returns the number of labels in the domain.
func (m *labelMap[V]) size() int {
	n := len(m.extra)
	for _, run := range m.runs {
		n += len(run)
	}
	return n
}

// originCount returns the number of labels in the domain with origin p.
func (m *labelMap[V]) originCount(p types.ProcID) int {
	n := 0
	for k, run := range m.runs {
		if k.origin == p {
			n += len(run)
		}
	}
	for l := range m.extra {
		if l.Origin == p {
			n++
		}
	}
	return n
}

// each calls f on every label and its value, in no particular order.
func (m *labelMap[V]) each(f func(types.Label, V)) {
	for k, run := range m.runs {
		for i, v := range run {
			f(types.Label{ID: k.id, Seqno: i + 1, Origin: k.origin}, v)
		}
	}
	for l, v := range m.extra {
		f(l, v)
	}
}

// labels returns the domain in label order.
func (m *labelMap[V]) labels() []types.Label {
	out := make([]types.Label, 0, m.size())
	m.each(func(l types.Label, _ V) { out = append(out, l) })
	types.SortLabels(out)
	return out
}

// Clone returns an independent copy, copying each run's slice whole.
func (m *labelMap[V]) Clone() labelMap[V] {
	c := labelMap[V]{extra: maps.Clone(m.extra)}
	if m.runs != nil {
		c.runs = make(map[runKey][]V, len(m.runs))
		for k, run := range m.runs {
			c.runs[k] = slices.Clone(run)
		}
	}
	return c
}

// Permute returns π(m): every label's view id and origin are renamed, its
// seqno and value kept, so each run maps whole onto its image run.
func (m *labelMap[V]) Permute(pi types.Perm) labelMap[V] {
	var c labelMap[V]
	if m.runs != nil {
		c.runs = make(map[runKey][]V, len(m.runs))
		for k, run := range m.runs {
			c.runs[runKey{id: pi.ViewID(k.id), origin: pi.ID(k.origin)}] = slices.Clone(run)
		}
	}
	if m.extra != nil {
		c.extra = make(map[types.Label]V, len(m.extra))
		for l, v := range m.extra {
			c.extra[pi.Label(l)] = v
		}
	}
	return c
}
