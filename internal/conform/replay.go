package conform

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/staticcore"
	"repro/internal/protocol/tocore"
	"repro/internal/quorum"
	"repro/internal/spec/dvs"
	"repro/internal/types"
)

// Divergence reports one replayed macro-step whose effect sequence differs
// from the recorded one.
type Divergence struct {
	P      types.ProcID
	Layer  string // "dvs" or "to"
	Index  int    // record index within that node's layer log
	Window int    // chunk that introduced it (streamed replay); 0 = whole trace
	Event  string // rendered input event
	Want   string // recorded effects, rendered
	Got    string // replayed effects, rendered
}

// String renders the divergence.
func (d Divergence) String() string {
	loc := ""
	if d.Window > 0 {
		loc = fmt.Sprintf(" [window %d]", d.Window)
	}
	return fmt.Sprintf("node %s %s step %d%s (%s): recorded [%s], replayed [%s]",
		d.P, d.Layer, d.Index, loc, d.Event, d.Want, d.Got)
}

// Violation is one failed invariant check over a replayed cut.
type Violation struct {
	Name   string
	Window int // chunk boundary it was detected at (streamed replay); 0 = final cut
	Err    error
}

// String renders the violation.
func (v Violation) String() string {
	if v.Window > 0 {
		return fmt.Sprintf("%s [window %d]: %s", v.Name, v.Window, v.Err)
	}
	return v.Name + ": " + v.Err.Error()
}

// Report is the outcome of replaying a set of node logs.
type Report struct {
	Nodes       int
	DVSSteps    int
	TOSteps     int
	Checks      int // invariant checks evaluated
	Malformed   []string
	Divergences []Divergence
	Violations  []Violation
}

// OK reports whether the replay was well-formed, divergence- and
// violation-free.
func (r *Report) OK() bool {
	return len(r.Malformed) == 0 && len(r.Divergences) == 0 && len(r.Violations) == 0
}

// Err returns nil when OK, else an error summarizing the first findings.
func (r *Report) Err() error {
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
	return fmt.Errorf("conformance: %s", strings.Join(parts, "; "))
}

// String renders a one-line summary.
func (r *Report) String() string {
	s := fmt.Sprintf("nodes=%d dvs_steps=%d to_steps=%d checks=%d divergences=%d violations=%d",
		r.Nodes, r.DVSSteps, r.TOSteps, r.Checks, len(r.Divergences), len(r.Violations))
	if len(r.Malformed) > 0 {
		s += fmt.Sprintf(" malformed=%d", len(r.Malformed))
	}
	return s
}

// validateLogSet reports malformed log-set structure into rep: duplicate
// entries for one process (they would silently overwrite each other in the
// replay maps) and disagreement on the initial view (the refinement mapping
// is anchored at a single v0, so mixed-run logs must be rejected, not
// replayed against an arbitrary log's v0). sorted must be ordered by P.
// Returns false when the set is unusable.
func validateLogSet(rep *Report, sorted []NodeLog) bool {
	ok := true
	for i := 1; i < len(sorted); i++ {
		if sorted[i].P == sorted[i-1].P {
			rep.Malformed = append(rep.Malformed,
				fmt.Sprintf("duplicate log for process %s", sorted[i].P))
			ok = false
		}
	}
	for _, lg := range sorted[1:] {
		if !lg.Initial.Equal(sorted[0].Initial) {
			rep.Malformed = append(rep.Malformed,
				fmt.Sprintf("process %s initial view %s disagrees with process %s initial view %s — logs are not from one run",
					lg.P, lg.Initial, sorted[0].P, sorted[0].Initial))
			ok = false
		}
		if lg.Static != sorted[0].Static {
			rep.Malformed = append(rep.Malformed,
				fmt.Sprintf("process %s static=%v disagrees with process %s static=%v — one run cannot mix filter modes",
					lg.P, lg.Static, sorted[0].P, sorted[0].Static))
			ok = false
		}
		if lg.Group != sorted[0].Group {
			rep.Malformed = append(rep.Malformed,
				fmt.Sprintf("process %s group %s disagrees with process %s group %s — each group is an independent run, harvest one log set per group",
					lg.P, lg.Group, sorted[0].P, sorted[0].Group))
			ok = false
		}
	}
	return ok
}

// stepDVSRecord replays one recorded VS-TO-DVS macro-step through dn — any
// dvscore.Filter, so the same path re-executes dynamic (dvscore.Node) and
// static (staticcore.Node) logs — and reports a divergence (attributed to
// window) when the re-derived effects differ from the recorded ones.
func stepDVSRecord(rep *Report, window int, p types.ProcID, gc bool, dn dvscore.Filter, index int, rec DVSRecord) {
	var out dvscore.Outbox
	dvscore.Step(dn, rec.Ev, gc, &out)
	rep.DVSSteps++
	if !sameEffects(rec.Fx, out.Effects, sameDVSEffect) {
		rep.Divergences = append(rep.Divergences, Divergence{
			P: p, Layer: "dvs", Index: index, Window: window,
			Event: renderDVSEvent(rec.Ev), Want: renderDVSEffects(rec.Fx), Got: renderDVSEffects(out.Effects),
		})
	}
}

// stepTORecord replays one recorded DVS-TO-TO macro-step through tn. A step
// error renders as the replayed outcome: recorded events never error (the
// shell drops rejected events unobserved), so an error is a divergence.
func stepTORecord(rep *Report, window int, p types.ProcID, register bool, tn *tocore.Node, index int, rec TORecord) {
	var out tocore.Outbox
	err := tocore.Step(tn, rec.Ev, register, &out)
	rep.TOSteps++
	if err == nil && sameEffects(rec.Fx, out.Effects, sameTOEffect) {
		return
	}
	got := renderTOEffects(out.Effects)
	if err != nil {
		got = "error: " + err.Error()
	}
	rep.Divergences = append(rep.Divergences, Divergence{
		P: p, Layer: "to", Index: index, Window: window,
		Event: renderTOEvent(rec.Ev), Want: renderTOEffects(rec.Fx), Got: got,
	})
}

// Replay re-executes the recorded logs through the protocol cores and
// evaluates the paper's invariants over the reconstructed final cut. The
// logs must cover every process of the run and must have been harvested
// after all nodes stopped — otherwise the cut is not consistent and the
// cross-node invariants can report false violations.
func Replay(logs []NodeLog) *Report {
	rep := &Report{Nodes: len(logs)}
	if len(logs) == 0 {
		return rep
	}
	sorted := append([]NodeLog(nil), logs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].P < sorted[j].P })
	if !validateLogSet(rep, sorted) {
		return rep
	}

	static := sorted[0].Static
	procs := make([]types.ProcID, 0, len(sorted))
	dvsNodes := make(map[types.ProcID]*dvscore.Node, len(sorted))
	statNodes := make(map[types.ProcID]*staticcore.Node, len(sorted))
	toNodes := make(map[types.ProcID]*tocore.Node, len(sorted))

	for _, lg := range sorted {
		procs = append(procs, lg.P)

		if static {
			sn := newStaticReplayNode(lg.P, lg.Initial, lg.InP0)
			for i, rec := range lg.DVS {
				stepDVSRecord(rep, 0, lg.P, lg.GC, sn, i, rec)
			}
			statNodes[lg.P] = sn
		} else {
			dn := dvscore.NewNode(lg.P, lg.Initial, lg.InP0)
			for i, rec := range lg.DVS {
				stepDVSRecord(rep, 0, lg.P, lg.GC, dn, i, rec)
			}
			dvsNodes[lg.P] = dn
		}

		tn := tocore.NewNode(lg.P, lg.Initial, lg.InP0, false)
		for i, rec := range lg.TO {
			stepTORecord(rep, 0, lg.P, lg.Register, tn, i, rec)
		}
		toNodes[lg.P] = tn
	}

	if static {
		checkStaticCut(rep, 0, procs, statNodes, toNodes)
	} else {
		checkCut(rep, 0, procs, sorted[0].Initial, dvsNodes, toNodes)
	}
	return rep
}

// newStaticReplayNode reconstructs the static-primary core exactly as the
// runtime builds it (cluster.go, tcpnode.go): a strict-majority quorum
// system over the members of the initial view. The quorum system is part of
// the core's construction, so if a future runtime configures a different
// one, it must be carried in the log for replays to stay faithful.
func newStaticReplayNode(p types.ProcID, initial types.View, inP0 bool) *staticcore.Node {
	return staticcore.NewNode(p, initial, inP0, quorum.Majority(initial.Members))
}

// checkCut evaluates the paper's cross-node invariants over the cut formed
// by the given replayed node states, attributing violations to window (0 =
// the final cut of the whole trace). The cut must be quiescent at the
// recorded interface: no core messages or safe indications in flight.
func checkCut(rep *Report, window int, procs []types.ProcID, initial types.View,
	dvsNodes map[types.ProcID]*dvscore.Node, toNodes map[types.ProcID]*tocore.Node) {
	check := func(name string, f func() error) {
		rep.Checks++
		if err := f(); err != nil {
			rep.Violations = append(rep.Violations, Violation{Name: name, Window: window, Err: err})
		}
	}

	// DVS implementation invariants 5.1–5.6 over the replayed node states.
	// With no VS oracle, Created is left nil and the formulas fall back to
	// the views recoverable from the node states (see dvscore.System).
	dsys := dvscore.System{Procs: procs, Nodes: dvsNodes}
	check("DVSIMPL-5.1", dsys.CheckInvariant51)
	check("DVSIMPL-5.2", dsys.CheckInvariant52)
	check("DVSIMPL-5.3", dsys.CheckInvariant53)
	check("DVSIMPL-5.4", dsys.CheckInvariant54)
	check("DVSIMPL-5.5", dsys.CheckInvariant55)
	check("DVSIMPL-5.6", dsys.CheckInvariant56)

	// DVS specification invariants 4.1–4.2 over the abstracted state: the
	// refinement mapping of Figure 4 applied to the quiescent cut (all
	// queues empty, so only views, attempts, registrations and client-cur
	// survive the purge).
	spec := abstractSpec(procs, initial, dvsNodes)
	check("DVS-4.1", func() error { return dvs.CheckInvariant41(spec) })
	check("DVS-4.2", func() error { return dvs.CheckInvariant42(spec) })

	// TO invariants 6.1–6.3 plus confirmed-prefix agreement, with the view
	// oracles reconstructed from the replayed DVS states and no in-transit
	// summaries (the cut is quiescent).
	created, attempted := viewOracles(procs, dvsNodes)
	tsys := tocore.System{
		Procs:     procs,
		Nodes:     toNodes,
		Created:   created,
		Attempted: attempted,
	}
	check("TOIMPL-6.1", tsys.CheckInvariant61)
	check("TOIMPL-6.2", tsys.CheckInvariant62)
	check("TOIMPL-6.3", tsys.CheckInvariant63)
	check("TOIMPL-confirmed-consistent", tsys.CheckConfirmedConsistent)
}

// checkStaticCut evaluates the invariants a static-primary cut supports.
// The paper's 5.x/4.x formulas quantify over DVS state (attempts,
// registrations, ambiguity) the static filter does not have; what remains
// is the static baseline's own safety argument — every announced primary is
// a quorum of the fixed universe, so any two primaries intersect — plus the
// filter-independent TO agreement on confirmed prefixes. The per-node
// checks are sound over any subset of the group; the pairwise ones only
// over the processes present, which is all a cut can offer.
func checkStaticCut(rep *Report, window int, procs []types.ProcID,
	statNodes map[types.ProcID]*staticcore.Node, toNodes map[types.ProcID]*tocore.Node) {
	check := func(name string, f func() error) {
		rep.Checks++
		if err := f(); err != nil {
			rep.Violations = append(rep.Violations, Violation{Name: name, Window: window, Err: err})
		}
	}

	check("STATIC-primary-quorum", func() error {
		for _, p := range procs {
			if err := checkLocalStaticPrimary(p, statNodes[p]); err != nil {
				return err
			}
		}
		return nil
	})
	check("STATIC-primary-intersect", func() error {
		for i, p := range procs {
			vp, ok := statNodes[p].ClientCur()
			if !ok {
				continue
			}
			for _, q := range procs[:i] {
				vq, ok := statNodes[q].ClientCur()
				if !ok {
					continue
				}
				if !vp.Members.Intersects(vq.Members) {
					return fmt.Errorf("primaries %s at %s and %s at %s are disjoint", vp, p, vq, q)
				}
			}
		}
		return nil
	})

	tsys := tocore.System{Procs: procs, Nodes: toNodes}
	check("TOIMPL-confirmed-consistent", tsys.CheckConfirmedConsistent)
}

// abstractSpec applies the refinement mapping F of Figure 4 to the replayed
// cut: created = ∪_p attempted_p, attempted[g] = the attempting processes,
// registered[g] = {p | reg[g]_p}, current-viewid[p] = client-cur.id_p. The
// message components (queues, pending, indices) are empty: the cut is taken
// after the run, when the purged channels hold nothing.
func abstractSpec(procs []types.ProcID, initial types.View, nodes map[types.ProcID]*dvscore.Node) *dvs.DVS {
	universe := types.NewProcSet()
	for _, p := range procs {
		universe.Add(p)
	}
	st := dvs.State{
		Universe:   universe,
		Initial:    initial,
		Current:    make(map[types.ProcID]types.ViewID),
		Attempted:  make(map[types.ViewID]types.ProcSet),
		Registered: make(map[types.ViewID]types.ProcSet),
		Drained:    true,
	}
	byID := make(map[types.ViewID]types.View)
	for _, p := range procs {
		n := nodes[p]
		for _, v := range n.AttemptedShared() {
			byID[v.ID] = v
			set, ok := st.Attempted[v.ID]
			if !ok {
				set = types.NewProcSet()
				st.Attempted[v.ID] = set
			}
			set.Add(p)
		}
		if cc, ok := n.ClientCur(); ok {
			st.Current[p] = cc.ID
		}
		for _, g := range n.RegisteredIDs() {
			set, ok := st.Registered[g]
			if !ok {
				set = types.NewProcSet()
				st.Registered[g] = set
			}
			set.Add(p)
		}
	}
	for _, v := range byID {
		st.Created = append(st.Created, v)
	}
	return dvs.FromState(st)
}

// viewOracles reconstructs the created set and per-view attempted sets the
// TO invariants quantify over from the replayed DVS states.
func viewOracles(procs []types.ProcID, nodes map[types.ProcID]*dvscore.Node) ([]types.View, func(types.ViewID) types.ProcSet) {
	byID := make(map[types.ViewID]types.View)
	att := make(map[types.ViewID]types.ProcSet)
	for _, p := range procs {
		for _, v := range nodes[p].AttemptedShared() {
			byID[v.ID] = v
			set, ok := att[v.ID]
			if !ok {
				set = types.NewProcSet()
				att[v.ID] = set
			}
			set.Add(p)
		}
	}
	created := make([]types.View, 0, len(byID))
	for _, v := range byID {
		created = append(created, v)
	}
	types.SortViews(created)
	return created, func(g types.ViewID) types.ProcSet {
		if s, ok := att[g]; ok {
			return s
		}
		return types.NewProcSet()
	}
}

// sameEffects reports whether two effect sequences are equal element by
// element under same. Divergence detection compares effects structurally:
// rendered keys are not injective (a client payload may contain the '|'
// that separates batch members), so they are built only for reports.
func sameEffects[E any](want, got []E, same func(a, b E) bool) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if !same(want[i], got[i]) {
			return false
		}
	}
	return true
}

func sameDVSEffect(a, b dvscore.Effect) bool {
	switch x := a.(type) {
	case dvscore.FxSendVS:
		y, ok := b.(dvscore.FxSendVS)
		return ok && types.SameMsg(x.M, y.M)
	case dvscore.FxDeliver:
		y, ok := b.(dvscore.FxDeliver)
		return ok && x.From == y.From && types.SameMsg(x.M, y.M)
	case dvscore.FxSafeInd:
		y, ok := b.(dvscore.FxSafeInd)
		return ok && x.From == y.From && types.SameMsg(x.M, y.M)
	case dvscore.FxNewPrimary:
		y, ok := b.(dvscore.FxNewPrimary)
		return ok && x.View.Equal(y.View)
	case dvscore.FxGC:
		y, ok := b.(dvscore.FxGC)
		return ok && x.View.Equal(y.View)
	}
	return false
}

func sameTOEffect(a, b tocore.Effect) bool {
	switch x := a.(type) {
	case tocore.FxLabel:
		y, ok := b.(tocore.FxLabel)
		return ok && x == y
	case tocore.FxSend:
		y, ok := b.(tocore.FxSend)
		return ok && types.SameMsg(x.M, y.M)
	case tocore.FxConfirm:
		_, ok := b.(tocore.FxConfirm)
		return ok
	case tocore.FxDeliver:
		y, ok := b.(tocore.FxDeliver)
		return ok && x == y
	case tocore.FxRegister:
		y, ok := b.(tocore.FxRegister)
		return ok && x.View.Equal(y.View)
	}
	return false
}

// Rendering: canonical strings for events and effects, used in divergence
// reports. MsgKey/String are the same canonical forms the model checker
// fingerprints.

func renderDVSEvent(ev dvscore.Event) string {
	switch e := ev.(type) {
	case dvscore.EvVSNewView:
		return "vs-newview " + e.View.String()
	case dvscore.EvVSRecv:
		return "vs-gprcv " + e.M.MsgKey() + " from " + e.From.String()
	case dvscore.EvVSSafe:
		return "vs-safe " + e.M.MsgKey() + " from " + e.From.String()
	case dvscore.EvClientSend:
		return "dvs-gpsnd " + e.M.MsgKey()
	case dvscore.EvClientRegister:
		return "dvs-register"
	default:
		return fmt.Sprintf("event? %T", ev)
	}
}

func renderDVSEffects(fx []dvscore.Effect) string {
	parts := make([]string, len(fx))
	for i, f := range fx {
		switch f := f.(type) {
		case dvscore.FxSendVS:
			parts[i] = "send " + f.M.MsgKey()
		case dvscore.FxDeliver:
			parts[i] = "deliver " + f.M.MsgKey() + " from " + f.From.String()
		case dvscore.FxSafeInd:
			parts[i] = "safe " + f.M.MsgKey() + " from " + f.From.String()
		case dvscore.FxNewPrimary:
			parts[i] = "newview " + f.View.String()
		case dvscore.FxGC:
			parts[i] = "gc " + f.View.String()
		default:
			parts[i] = fmt.Sprintf("effect? %T", f)
		}
	}
	return strings.Join(parts, "; ")
}

func renderTOEvent(ev tocore.Event) string {
	switch e := ev.(type) {
	case tocore.EvBroadcast:
		return "bcast " + e.A
	case tocore.EvNewView:
		return "dvs-newview " + e.View.String()
	case tocore.EvRecv:
		return "dvs-gprcv " + e.M.MsgKey() + " from " + e.From.String()
	case tocore.EvSafe:
		return "dvs-safe " + e.M.MsgKey() + " from " + e.From.String()
	default:
		return fmt.Sprintf("event? %T", ev)
	}
}

func renderTOEffects(fx []tocore.Effect) string {
	parts := make([]string, len(fx))
	for i, f := range fx {
		switch f := f.(type) {
		case tocore.FxLabel:
			parts[i] = "label " + f.A
		case tocore.FxSend:
			parts[i] = "send " + f.M.MsgKey()
		case tocore.FxConfirm:
			parts[i] = "confirm"
		case tocore.FxDeliver:
			parts[i] = "deliver " + f.A + "@" + f.Origin.String()
		case tocore.FxRegister:
			parts[i] = "register " + f.View.String()
		default:
			parts[i] = fmt.Sprintf("effect? %T", f)
		}
	}
	return strings.Join(parts, "; ")
}
