package tocore

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/ioa"
	"repro/internal/types"
)

// checkLabelMap compares m with a plain map over the same labels: domain,
// lookups, size and sorted label list, plus the placement invariant that
// no overflow label could have joined its run.
func checkLabelMap[V comparable](t *testing.T, name string, m *labelMap[V], ref map[types.Label]V, probes []types.Label) {
	t.Helper()
	if got := m.size(); got != len(ref) {
		t.Fatalf("%s: size %d, reference %d", name, got, len(ref))
	}
	for l, want := range ref {
		if got, ok := m.get(l); !ok || got != want {
			t.Fatalf("%s: get(%s) = %v, %v; reference %v", name, l, got, ok, want)
		}
	}
	for _, l := range probes {
		_, want := ref[l]
		if got := m.has(l); got != want {
			t.Fatalf("%s: has(%s) = %v; reference %v", name, l, got, want)
		}
	}
	want := make([]types.Label, 0, len(ref))
	for l := range ref {
		want = append(want, l)
	}
	types.SortLabels(want)
	if got := m.labels(); !slices.Equal(got, want) {
		t.Fatalf("%s: labels %v, reference %v", name, got, want)
	}
	for l := range m.extra {
		if run := m.runs[keyOf(l)]; l.Seqno >= 1 && l.Seqno <= len(run)+1 {
			t.Fatalf("%s: %s parked in overflow although its run has length %d", name, l, len(run))
		}
	}
	for k, run := range m.runs {
		if len(run) == 0 {
			t.Fatalf("%s: empty run %v materialized", name, k)
		}
	}
}

// fuzzSeqnos are the seqnos a fuzz byte can name beyond the small range:
// non-positive ones and those at the top of the int range.
var fuzzSeqnos = []int{0, -1, math.MinInt, math.MaxInt, math.MaxInt - 1, 1 << 40}

// decodeLabel turns two fuzz bytes into a label over two views and three
// origins, with seqnos clustered at 1..12 (so runs, gaps and duplicates
// all occur) and the extreme values of fuzzSeqnos.
func decodeLabel(b0, b1 byte) types.Label {
	l := types.Label{ID: types.ViewID{Seq: uint64(b0 & 1), Origin: types.ProcID(b0 >> 1 & 1)}, Origin: types.ProcID(b0 >> 2 % 3)}
	if s := int(b1 & 0x1f); s < 24 {
		l.Seqno = s%12 + 1
	} else {
		l.Seqno = fuzzSeqnos[(s-24)%len(fuzzSeqnos)]
	}
	return l
}

func FuzzLabelStore(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3})                   // one run in order
	f.Add([]byte{0, 3, 0, 2, 0, 1, 0, 1})             // reverse order, then a duplicate
	f.Add([]byte{0, 5, 4, 1, 0, 1, 0, 2, 0, 3, 0, 4}) // a gap that closes
	f.Add([]byte{1, 24, 1, 27, 2, 29, 3, 30, 0, 26})  // non-positive and huge seqnos
	f.Add([]byte{0x80 | 0, 1, 0x80 | 7, 2, 0x80 | 0, 2, 0x40 | 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var content labelMap[string]
		var safe labelMap[struct{}]
		refContent := map[types.Label]string{}
		refSafe := map[types.Label]struct{}{}
		var probes []types.Label
		for i := 0; i+1 < len(data); i += 2 {
			l := decodeLabel(data[i], data[i+1])
			probes = append(probes, l, types.Label{ID: l.ID, Seqno: l.Seqno + 1, Origin: l.Origin})
			switch {
			case data[i]&0x80 != 0:
				safe.put(l, struct{}{})
				refSafe[l] = struct{}{}
			case data[i]&0x40 != 0:
				// Overwrite with a different payload.
				a := string(rune('A' + i%26))
				content.put(l, a)
				refContent[l] = a
			default:
				a := l.String()
				content.put(l, a)
				refContent[l] = a
			}
		}
		checkLabelMap(t, "content", &content, refContent, probes)
		checkLabelMap(t, "safe", &safe, refSafe, probes)
		c := content.Clone()
		checkLabelMap(t, "content clone", &c, refContent, probes)
		// The clone is independent of the original.
		content.put(types.Label{Seqno: 1}, "mutated")
		checkLabelMap(t, "content clone after mutating the original", &c, refContent, probes)
	})
}

// randomNode drives a node through a random schedule of Figure 5 inputs
// and then puts a random label sequence straight into its content and
// safe stores, mirroring every put into the returned plain maps.
func randomNode(rng *rand.Rand) (*Node, types.Content, map[types.Label]struct{}) {
	v0 := types.InitialView(types.NewProcSet(0, 1, 2))
	n := NewNode(0, v0, true, false)
	var out Outbox
	views := []types.View{v0, v(1, 0, 1), v(2, 0, 1, 2)}
	for i := rng.Intn(12); i > 0; i-- {
		switch rng.Intn(4) {
		case 0:
			_ = Step(n, EvBroadcast{A: string(rune('a' + rng.Intn(26)))}, true, &out)
		case 1:
			_ = Step(n, EvNewView{View: views[rng.Intn(len(views))]}, true, &out)
		case 2:
			m := LabelMsg{L: randomLabel(rng, views), A: "r"}
			_ = Step(n, EvRecv{M: m, From: m.L.Origin}, true, &out)
		case 3:
			m := LabelMsg{L: randomLabel(rng, views)}
			_ = Step(n, EvSafe{M: m, From: m.L.Origin}, true, &out)
		}
	}
	con := n.Content()
	safe := map[types.Label]struct{}{}
	for _, l := range n.safeLabels.labels() {
		safe[l] = struct{}{}
	}
	for i := rng.Intn(40); i > 0; i-- {
		l := randomLabel(rng, views)
		if rng.Intn(3) == 0 {
			n.safeLabels.put(l, struct{}{})
			safe[l] = struct{}{}
			continue
		}
		a := string(rune('a' + rng.Intn(26)))
		n.content.put(l, a)
		con[l] = a
	}
	return n, con, safe
}

func randomLabel(rng *rand.Rand, views []types.View) types.Label {
	l := types.Label{ID: views[rng.Intn(len(views))].ID, Seqno: rng.Intn(8) + 1, Origin: types.ProcID(rng.Intn(3))}
	if rng.Intn(10) == 0 {
		l.Seqno = fuzzSeqnos[rng.Intn(len(fuzzSeqnos))]
	}
	return l
}

// TestFingerprintMatchesContentRelation checks that the dense stores
// fingerprint bit-identically to the map representation they replaced:
// the node's digest equals the digest of the same node with its content
// and safe lines written from plain maps through types.Content.WriteFp.
// Lines fold into the digest by a commutative sum, so swapping those two
// lines for their references must leave the sum unchanged.
func TestFingerprintMatchesContentRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n, con, safe := randomNode(rng)
		var got ioa.Fingerprinter
		got.SetRecording(true)
		n.AddFingerprint(&got)

		bare := n.Clone()
		bare.content, bare.safeLabels = labelMap[string]{}, labelMap[struct{}]{}
		var want ioa.Fingerprinter
		want.SetRecording(true)
		bare.AddFingerprint(&want)
		want.SetPrefix(n.fpPre)
		if len(con) > 0 {
			want.Begin("content")
			want.Byte('=')
			con.WriteFp(&want)
			want.End()
		}
		if len(safe) > 0 {
			ls := make([]types.Label, 0, len(safe))
			for l := range safe {
				ls = append(ls, l)
			}
			sort.Slice(ls, func(i, j int) bool { return ls[i].Less(ls[j]) })
			want.Begin("safe")
			want.Byte('=')
			writeLabelsFp(&want, ls)
			want.End()
		}
		if got.Sum() != want.Sum() {
			t.Fatalf("trial %d: digest differs from the map representation\n got:\n%s\nwant:\n%s",
				trial, got.String(), want.String())
		}
	}
}

// TestHostileSeqnoAllocatesConstant feeds labels whose seqnos lie far past
// any run: they must land in the overflow map, not size a slice by the gap.
func TestHostileSeqnoAllocatesConstant(t *testing.T) {
	n, v0 := newTONode(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var out Outbox
	for i, seq := range []int{1 << 40, math.MaxInt, 1 << 40, -5} {
		m := LabelMsg{L: types.Label{ID: v0.ID, Seqno: seq, Origin: 1}, A: "x"}
		if err := Step(n, EvRecv{M: m, From: 1}, true, &out); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if err := Step(n, EvSafe{M: m, From: 1}, true, &out); err != nil {
			t.Fatalf("safe %d: %v", i, err)
		}
	}
	sum := types.Summary{Con: types.Content{{ID: v0.ID, Seqno: 1 << 41, Origin: 2}: "y"}, Next: 1}
	n.OnDVSNewView(v(1, 0, 1))
	if err := Step(n, EvRecv{M: SummaryMsg{X: sum}, From: 1}, true, &out); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<16 {
		t.Fatalf("heap grew by %d bytes for a handful of hostile labels", grew)
	}
	if got := len(n.Content()); got != 4 {
		t.Fatalf("content holds %d labels, want 4", got)
	}
	runtime.KeepAlive(n)
}
