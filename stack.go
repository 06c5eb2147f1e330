package dvs

import (
	"fmt"
	"time"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/dvsg"
	"repro/internal/mcast"
	netfab "repro/internal/net"
	"repro/internal/protocol/staticcore"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/tob"
	"repro/internal/types"
	"repro/internal/vsg"
)

// procConfig carries everything needed to assemble one process: one
// protocol stack per group — membership (VS), the primary-view filter, and
// the totally-ordered broadcast application, plus the conformance taps —
// over one transport. The in-memory Cluster and ShardedCluster and the TCP
// Node all build their processes with buildProcess, so the wiring — and
// the recorded construction parameters the replayer depends on — cannot
// drift between entry points.
type procConfig struct {
	self      ProcID
	universe  types.ProcSet
	p0        types.ProcSet // members of the initial view
	initial   types.View
	transport netfab.Transport
	groups    int // >= 1

	mode                Mode
	disableRegistration bool
	tick                time.Duration
	suspect             time.Duration
	retry               time.Duration

	record  bool
	streams []*TraceStream // indexed by group; a missing or nil entry streams nothing
	online  *OnlineCheckConfig
}

// stack is one group's protocol stack at one process. Process embeds it
// and promotes its fields.
type stack struct {
	group types.GroupID
	vsg   *vsg.Node
	dvs   *dvsg.Layer
	tob   *tob.Layer
	rec   *conform.Recorder      // nil unless record
	check *conform.OnlineChecker // nil unless online
}

// members resolves a configuration's process universe [0, n) and the
// members of its initial view: the listed ones, or all when none are
// listed.
func members(n int, initial []int) (universe, p0 types.ProcSet, err error) {
	universe = types.RangeProcSet(n)
	if len(initial) == 0 {
		return universe, universe.Clone(), nil
	}
	p0 = types.NewProcSet()
	for _, i := range initial {
		if i < 0 || i >= n {
			return nil, nil, fmt.Errorf("dvs: initial member %d out of range", i)
		}
		p0.Add(ProcID(i))
	}
	return universe, p0, nil
}

// buildProcess assembles one process: a stack for each group and, only
// with two or more groups, the group multiplexer that shares the transport
// among them, the key router and the cross-group multicast coordinator. A
// one-group process is a single stack straight on the transport, with no
// extra goroutine. Nothing runs until start.
func buildProcess(pc procConfig) (*ShardedProcess, error) {
	groups := types.RangeGroups(pc.groups)
	p := &ShardedProcess{byGroup: make([]*Process, 0, len(groups)), ring: shard.NewRing(groups)}
	if len(groups) > 1 {
		p.mux = netfab.NewGroupMux(pc.self, pc.transport, groups)
	}
	for _, g := range groups {
		t := pc.transport
		if p.mux != nil {
			t = p.mux.Group(g)
		}
		var stream *TraceStream
		if int(g) < len(pc.streams) {
			stream = pc.streams[g]
		}
		st, err := buildStack(pc, g, t, stream)
		if err != nil {
			return nil, err
		}
		p.byGroup = append(p.byGroup, &Process{id: pc.self, stack: st})
	}
	p.Process = p.byGroup[0]
	if p.mux == nil {
		return p, nil
	}
	ports := make([]mcast.GroupPort, 0, len(groups))
	for _, h := range p.byGroup {
		ports = append(ports, mcast.GroupPort{G: h.group, TOB: h.tob, Run: h.vsg.Do})
	}
	p.mc = mcast.New(pc.self, ports)
	if pc.record {
		p.mrec = conform.NewMcastRecorder(pc.self, groups)
		p.mc.AddObserver(p.mrec.Observe)
	}
	for _, h := range p.byGroup {
		h.tob.SetDeliverHook(p.mc.Hook(h.group))
	}
	return p, nil
}

// start runs the process: the multiplexer's pump, every group's event
// loop, then the multicast coordinator.
func (p *ShardedProcess) start() {
	if p.mux != nil {
		// Start fails only when the transport has no inbox for this
		// process, and every transport a process is built on has one.
		_ = p.mux.Start()
	}
	for _, h := range p.byGroup {
		h.vsg.Start()
	}
	if p.mc != nil {
		p.mc.Start()
	}
}

// stop halts what start ran, in reverse order. The transport is the
// caller's to close.
func (p *ShardedProcess) stop() {
	if p.mc != nil {
		p.mc.Stop()
	}
	for _, h := range p.byGroup {
		h.vsg.Stop()
	}
	if p.mux != nil {
		p.mux.Stop()
	}
}

// buildStack assembles group g's stack over transport t. The vsg node is
// returned un-started.
func buildStack(pc procConfig, g types.GroupID, t netfab.Transport, stream *TraceStream) (*stack, error) {
	node := vsg.NewNode(vsg.Config{
		Self:           pc.self,
		Universe:       pc.universe,
		Initial:        pc.initial,
		Transport:      t,
		TickInterval:   pc.tick,
		SuspectTimeout: pc.suspect,
		ProposeRetry:   pc.retry,
	})

	inP0 := pc.initial.Contains(pc.self)
	var filter dvsg.Filter
	if pc.mode == ModeStatic {
		filter = staticcore.NewNode(pc.self, pc.initial, inP0, quorum.Majority(pc.p0))
	} else {
		filter = core.NewNode(pc.self, pc.initial, inP0)
	}
	app := tob.New(pc.self, pc.initial, !pc.disableRegistration, node.Stopped())
	layer := dvsg.New(filter, app, pc.mode == ModeDynamic)
	layer.Bind(node)
	app.Bind(layer)
	node.SetHandler(layer)

	// The recorded construction parameters must match how the cores were
	// actually built above: gc is on only in dynamic mode, and static marks
	// the filter as the staticcore baseline so the replayer re-executes the
	// right automaton.
	gcOn := pc.mode == ModeDynamic
	static := pc.mode == ModeStatic
	st := &stack{group: g, vsg: node, dvs: layer, tob: app}
	if pc.record {
		st.rec = conform.NewRecorder(pc.self, g, pc.initial, inP0, !pc.disableRegistration, gcOn, static)
		layer.AddObserver(st.rec.ObserveDVS)
		app.AddObserver(st.rec.ObserveTO)
	}
	if stream != nil {
		sn, err := stream.Node(pc.self, g, pc.initial, inP0, !pc.disableRegistration, gcOn, static)
		if err != nil {
			return nil, fmt.Errorf("dvs: registering process %s with trace stream: %w", pc.self, err)
		}
		layer.AddObserver(sn.ObserveDVS)
		app.AddObserver(sn.ObserveTO)
	}
	if pc.online != nil {
		st.check = conform.NewOnlineChecker(pc.self, pc.initial, inP0, !pc.disableRegistration, true, *pc.online)
		layer.AddObserver(st.check.ObserveDVS)
		app.AddObserver(st.check.ObserveTO)
	}
	return st, nil
}
