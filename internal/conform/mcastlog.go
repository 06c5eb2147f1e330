package conform

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/protocol/mcastcore"
	"repro/internal/types"
)

// Multicast conformance mirrors the per-node DVS/TO harness for the
// cross-group coordinator: the mcast shell's observer hands every
// macro-step of the multicast core to a recorder, and the replayer
// re-executes each log through a fresh core. Determinism is checked per
// step (same event stream, same effect sequence), and the replayed
// delivery histories are then checked against the multicast safety suite —
// per-group agreement, (timestamp, id) order, no duplicates, and the
// cross-group partial order: any two groups that both deliver two
// multi-group messages deliver them in the same relative order. The suite
// is sound over any subset of nodes and groups: every check quantifies
// only over the delivery sequences present, so a partial harvest can miss
// a violation but never fabricate one.

// McastRecord is one macro-step of the multicast core.
type McastRecord struct {
	Ev mcastcore.Event
	Fx []mcastcore.Effect
}

// McastLog is the complete multicast trace of one process: the core
// construction parameters plus every macro-step, in execution order.
type McastLog struct {
	P      types.ProcID
	Groups []types.GroupID
	Steps  []McastRecord
}

// McastRecorder accumulates one process's multicast log. Observe installs
// as the coordinator's observer (mcast.Coordinator.AddObserver); it runs
// with the coordinator mutex held, so records keep core execution order.
type McastRecorder struct {
	mu  sync.Mutex
	log McastLog
}

// NewMcastRecorder starts a log for process p over its member groups.
func NewMcastRecorder(p types.ProcID, groups []types.GroupID) *McastRecorder {
	return &McastRecorder{log: McastLog{
		P:      p,
		Groups: types.DedupGroups(append([]types.GroupID(nil), groups...)),
	}}
}

// Observe records one multicast macro-step. Events and effects are
// deep-copied: the destination slices are shared with the core.
func (r *McastRecorder) Observe(ev mcastcore.Event, fx []mcastcore.Effect) {
	rec := McastRecord{Ev: cloneMcastEvent(ev), Fx: make([]mcastcore.Effect, len(fx))}
	for i, f := range fx {
		rec.Fx[i] = cloneMcastEffect(f)
	}
	r.mu.Lock()
	r.log.Steps = append(r.log.Steps, rec)
	r.mu.Unlock()
}

// Log returns a snapshot of the accumulated log.
func (r *McastRecorder) Log() McastLog {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.log
	out.Groups = append([]types.GroupID(nil), r.log.Groups...)
	out.Steps = append([]McastRecord(nil), r.log.Steps...)
	return out
}

func cloneGroups(gs []types.GroupID) []types.GroupID {
	if gs == nil {
		return nil
	}
	return append([]types.GroupID(nil), gs...)
}

func cloneMcastEvent(ev mcastcore.Event) mcastcore.Event {
	switch e := ev.(type) {
	case mcastcore.EvSubmit:
		return mcastcore.EvSubmit{Dests: cloneGroups(e.Dests), Payload: e.Payload}
	case mcastcore.EvData:
		return mcastcore.EvData{Group: e.Group, ID: e.ID, Origin: e.Origin, Dests: cloneGroups(e.Dests), Payload: e.Payload}
	case mcastcore.EvProposal:
		return e // scalar fields only
	default:
		return ev
	}
}

func cloneMcastEffect(fx mcastcore.Effect) mcastcore.Effect {
	switch f := fx.(type) {
	case mcastcore.FxSendData:
		return mcastcore.FxSendData{To: f.To, ID: f.ID, Origin: f.Origin, Dests: cloneGroups(f.Dests), Payload: f.Payload}
	case mcastcore.FxSendProp:
		return f // scalar fields only
	case mcastcore.FxDeliver:
		return f // scalar fields only
	default:
		return fx
	}
}

// McastReport is the outcome of replaying a set of multicast logs.
type McastReport struct {
	Nodes       int
	Steps       int
	Checks      int
	Malformed   []string
	Divergences []Divergence // Layer "mcast"
	Violations  []Violation
}

// OK reports whether the replay was well-formed, divergence- and
// violation-free.
func (r *McastReport) OK() bool {
	return len(r.Malformed) == 0 && len(r.Divergences) == 0 && len(r.Violations) == 0
}

// Err returns nil when OK, else an error summarizing the first findings.
func (r *McastReport) Err() error {
	if r.OK() {
		return nil
	}
	var parts []string
	if n := len(r.Malformed); n > 0 {
		parts = append(parts, fmt.Sprintf("%d malformed log(s), first: %s", n, r.Malformed[0]))
	}
	if n := len(r.Divergences); n > 0 {
		parts = append(parts, fmt.Sprintf("%d divergence(s), first: %s", n, r.Divergences[0]))
	}
	if n := len(r.Violations); n > 0 {
		parts = append(parts, fmt.Sprintf("%d invariant violation(s), first: %s", n, r.Violations[0]))
	}
	return fmt.Errorf("mcast conformance: %s", strings.Join(parts, "; "))
}

// String renders a one-line summary.
func (r *McastReport) String() string {
	s := fmt.Sprintf("nodes=%d mcast_steps=%d checks=%d divergences=%d violations=%d",
		r.Nodes, r.Steps, r.Checks, len(r.Divergences), len(r.Violations))
	if len(r.Malformed) > 0 {
		s += fmt.Sprintf(" malformed=%d", len(r.Malformed))
	}
	return s
}

// ReplayMcast re-executes the recorded multicast logs through fresh cores
// and evaluates the multicast safety suite over the replayed delivery
// histories. Unlike the DVS/TO replay, the log set need not cover every
// process or every group: the checks are sound over whatever delivery
// sequences the replayed logs reconstruct.
func ReplayMcast(logs []McastLog) *McastReport {
	rep := &McastReport{Nodes: len(logs)}
	if len(logs) == 0 {
		return rep
	}
	sorted := append([]McastLog(nil), logs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].P < sorted[j].P })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].P == sorted[i-1].P {
			rep.Malformed = append(rep.Malformed,
				fmt.Sprintf("duplicate multicast log for process %s", sorted[i].P))
		}
	}
	if len(rep.Malformed) > 0 {
		return rep
	}

	var seqs []mcastcore.DeliverySeq
	for _, lg := range sorted {
		n := mcastcore.NewNode(lg.P, lg.Groups)
		for i, rec := range lg.Steps {
			var out mcastcore.Outbox
			err := mcastcore.Step(n, rec.Ev, &out)
			rep.Steps++
			// Recorded events never error: the shell drops rejected events
			// unobserved, so a replay error is a divergence.
			if err == nil && sameEffects(rec.Fx, out.Effects, sameMcastEffect) {
				continue
			}
			got := renderMcastEffects(out.Effects)
			if err != nil {
				got = "error: " + err.Error()
			}
			rep.Divergences = append(rep.Divergences, Divergence{
				P: lg.P, Layer: "mcast", Index: i,
				Event: renderMcastEvent(rec.Ev), Want: renderMcastEffects(rec.Fx), Got: got,
			})
		}
		for _, g := range lg.Groups {
			seqs = append(seqs, mcastcore.DeliverySeq{P: lg.P, G: g, Deliveries: n.Delivered(g)})
		}
	}

	check := func(name string, f func([]mcastcore.DeliverySeq) error) {
		rep.Checks++
		if err := f(seqs); err != nil {
			rep.Violations = append(rep.Violations, Violation{Name: name, Err: err})
		}
	}
	check("MCAST-no-duplicates", mcastcore.CheckNoDuplicates)
	check("MCAST-timestamp-order", mcastcore.CheckTimestampOrder)
	check("MCAST-group-agreement", mcastcore.CheckPerGroupAgreement)
	check("MCAST-cross-group-order", mcastcore.CheckCrossGroupOrder)
	return rep
}

func sameMcastEffect(a, b mcastcore.Effect) bool {
	switch x := a.(type) {
	case mcastcore.FxSendData:
		y, ok := b.(mcastcore.FxSendData)
		return ok && x.To == y.To && x.ID == y.ID && x.Origin == y.Origin &&
			x.Payload == y.Payload && slices.Equal(x.Dests, y.Dests)
	case mcastcore.FxSendProp:
		y, ok := b.(mcastcore.FxSendProp)
		return ok && x == y
	case mcastcore.FxDeliver:
		y, ok := b.(mcastcore.FxDeliver)
		return ok && x == y
	}
	return false
}

func renderGroups(gs []types.GroupID) string {
	parts := make([]string, len(gs))
	for i, g := range gs {
		parts[i] = strconv.Itoa(int(g))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func renderMcastEvent(ev mcastcore.Event) string {
	switch e := ev.(type) {
	case mcastcore.EvSubmit:
		return "mc-submit " + renderGroups(e.Dests) + " " + e.Payload
	case mcastcore.EvData:
		return fmt.Sprintf("mc-data %s@%s %s %s %s", e.ID, e.Group, e.Origin, renderGroups(e.Dests), e.Payload)
	case mcastcore.EvProposal:
		return fmt.Sprintf("mc-prop %s@%s from %s ts=%d", e.ID, e.Group, e.PGroup, e.TS)
	default:
		return fmt.Sprintf("event? %T", ev)
	}
}

func renderMcastEffects(fx []mcastcore.Effect) string {
	parts := make([]string, len(fx))
	for i, f := range fx {
		switch f := f.(type) {
		case mcastcore.FxSendData:
			parts[i] = fmt.Sprintf("data>%s %s %s %s %s", f.To, f.ID, f.Origin, renderGroups(f.Dests), f.Payload)
		case mcastcore.FxSendProp:
			parts[i] = fmt.Sprintf("prop>%s %s from %s ts=%d", f.To, f.ID, f.PGroup, f.TS)
		case mcastcore.FxDeliver:
			parts[i] = fmt.Sprintf("deliver %s@%s ts=%d %s", f.ID, f.Group, f.TS, f.Payload)
		default:
			parts[i] = fmt.Sprintf("effect? %T", f)
		}
	}
	return strings.Join(parts, "; ")
}
