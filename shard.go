package dvs

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/conform"
	"repro/internal/mcast"
	netfab "repro/internal/net"
	"repro/internal/protocol/mcastcore"
	"repro/internal/shard"
	"repro/internal/types"
)

// GroupID identifies one DVS/TO group of a sharded deployment.
type GroupID = types.GroupID

// McastDelivery is one finalized cross-group multicast delivery: the
// message id, origin, payload, and the merged timestamp that positions it
// identically in every addressed group.
type McastDelivery = mcastcore.Delivered

// McastTraceLog is one process's recorded multicast trace; see
// ShardedCluster.McastLogs and ReplayMcastTrace.
type McastTraceLog = conform.McastLog

// McastConformanceReport is the outcome of replaying multicast traces.
type McastConformanceReport = conform.McastReport

// ReplayMcastTrace re-executes recorded multicast logs through the
// multicast core and checks the multicast safety suite: per-group
// agreement, (timestamp, id) delivery order, no duplicates, and the
// cross-group partial order — any two groups that both deliver two
// multicasts deliver them in the same relative order.
func ReplayMcastTrace(logs []McastTraceLog) *McastConformanceReport {
	return conform.ReplayMcast(logs)
}

// ShardedConformanceReport aggregates the per-group stream replays and the
// multicast replay of one sharded trace directory.
type ShardedConformanceReport = conform.ShardedReport

// ReplayShardedTrace replays a sharded trace directory written by a
// ShardedCluster with StreamDir: every group's chunked stream through the
// stream replayer, plus the multicast logs (when recorded) through the
// multicast safety suite.
func ReplayShardedTrace(dir string) (*ShardedConformanceReport, error) {
	return conform.ReplaySharded(dir)
}

// ShardedConfig configures a ShardedCluster.
type ShardedConfig struct {
	// Processes is the size of the process universe; every process is a
	// member of every group.
	Processes int
	// Groups is the number of independent DVS/TO groups (>= 1).
	Groups int
	// Mode selects dynamic (default) or static primaries, for every group.
	Mode Mode
	// DisableRegistration as in Config.
	DisableRegistration bool
	// Seed and LossRate as in Config; faults are node-level, so a
	// partition or crash affects every group of the affected processes.
	Seed     int64
	LossRate float64
	// Timing as in Config.
	TickInterval   time.Duration
	SuspectTimeout time.Duration
	ProposeRetry   time.Duration
	// Record enables in-memory trace recording: per-(process, group)
	// protocol logs (TraceLogs) and per-process multicast logs
	// (McastLogs), both harvested after Close.
	Record bool
	// StreamDir, when non-empty, spills every group's macro-steps into a
	// sharded trace directory: one chunked stream per group under
	// group-NN/ subdirectories. Close seals the streams and (with Record
	// and two or more groups) writes the multicast logs alongside; check
	// the directory with ReplayShardedTrace.
	StreamDir string
}

// ShardedCluster runs Processes × Groups protocol stacks over one
// partitionable in-memory network: every process runs one stack per group,
// all multiplexed over its single fabric endpoint by a group tag. Keyed
// client traffic routes to groups by consistent hash; multi-group traffic
// goes through the cross-group atomic multicast. With one group every
// process is wired exactly like a Cluster's.
type ShardedCluster struct {
	*memCluster
	cfg      ShardedConfig
	streams  []*TraceStream // indexed by group; nil without StreamDir
	closeErr error
}

// ShardedProcess is the all-groups handle of one process: its per-group
// handles (group 0's embedded, so a one-group process reads like a
// Process) and, with two or more groups, its group multiplexer and
// multicast coordinator.
type ShardedProcess struct {
	*Process                        // group 0
	byGroup  []*Process             // indexed by group id
	ring     *shard.Ring            // without points at one group
	mux      *netfab.GroupMux       // nil at one group
	mc       *mcast.Coordinator     // nil at one group
	mrec     *conform.McastRecorder // nil unless recording with a coordinator
}

// NewShardedCluster builds and starts a sharded cluster.
func NewShardedCluster(cfg ShardedConfig) (*ShardedCluster, error) {
	if cfg.Processes <= 0 {
		return nil, errors.New("dvs: ShardedConfig.Processes must be positive")
	}
	if cfg.Groups <= 0 {
		return nil, errors.New("dvs: ShardedConfig.Groups must be positive")
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeDynamic
	}
	universe := types.RangeProcSet(cfg.Processes)
	c := &ShardedCluster{cfg: cfg}
	// abort releases the streams opened so far: each holds files and a
	// writer goroutine.
	abort := func(err error) (*ShardedCluster, error) {
		for _, sr := range c.streams {
			sr.Close()
		}
		return nil, err
	}
	if cfg.StreamDir != "" {
		for _, g := range types.RangeGroups(cfg.Groups) {
			sr, err := NewTraceStream(conform.GroupDir(cfg.StreamDir, g), TraceStreamOptions{})
			if err != nil {
				return abort(fmt.Errorf("dvs: creating group %s trace stream: %w", g, err))
			}
			c.streams = append(c.streams, sr)
		}
	}
	var err error
	c.memCluster, err = newMemCluster(procConfig{
		universe:            universe,
		p0:                  universe,
		initial:             types.InitialView(universe),
		groups:              cfg.Groups,
		mode:                cfg.Mode,
		disableRegistration: cfg.DisableRegistration,
		tick:                cfg.TickInterval,
		suspect:             cfg.SuspectTimeout,
		retry:               cfg.ProposeRetry,
		record:              cfg.Record,
		streams:             c.streams,
	}, netfab.Config{Seed: cfg.Seed, LossRate: cfg.LossRate})
	if err != nil {
		return abort(err)
	}
	return c, nil
}

// Process returns the handle of process i.
func (c *ShardedCluster) Process(i int) *ShardedProcess { return c.procs[i] }

// Processes returns all handles in id order.
func (c *ShardedCluster) Processes() []*ShardedProcess {
	return append([]*ShardedProcess(nil), c.procs...)
}

// Groups returns the cluster's group ids (sorted).
func (c *ShardedCluster) Groups() []types.GroupID { return types.RangeGroups(c.cfg.Groups) }

// Ring returns the cluster's key→group router (every process builds the
// same one).
func (c *ShardedCluster) Ring() *shard.Ring { return c.procs[0].ring }

// Close stops every process's every stack, seals any sharded trace, and
// disconnects the fabric. Idempotent; returns the first trace-sealing
// error.
func (c *ShardedCluster) Close() error {
	c.close.Do(func() {
		c.stop()
		for g, sr := range c.streams {
			if err := sr.Close(); err != nil && c.closeErr == nil {
				c.closeErr = fmt.Errorf("dvs: sealing group %d trace: %w", g, err)
			}
		}
		if c.cfg.StreamDir != "" && c.cfg.Record && c.cfg.Groups > 1 {
			if err := conform.WriteMcastLogs(c.cfg.StreamDir, c.McastLogs()); err != nil && c.closeErr == nil {
				c.closeErr = fmt.Errorf("dvs: writing multicast logs: %w", err)
			}
		}
	})
	return c.closeErr
}

// TraceLogs returns the recorded protocol traces of group g, in process-id
// order, or nil without Record. Must be called after Close; each group's
// logs form their own consistent cut and replay as an independent set.
func (c *ShardedCluster) TraceLogs(g types.GroupID) []TraceLog { return c.traceLogs(g) }

// McastLogs returns the recorded multicast traces, in process-id order, or
// nil without Record or with one group (no multicast runs). Must be called
// after Close; check with conform.ReplayMcast (cross-group partial order,
// per-group agreement, timestamp order, no duplicates).
func (c *ShardedCluster) McastLogs() []conform.McastLog {
	out := make([]conform.McastLog, 0, len(c.procs))
	for _, p := range c.procs {
		log, ok := p.McastLog()
		if !ok {
			return nil
		}
		out = append(out, log)
	}
	return out
}

// Groups returns the process's group ids (sorted).
func (p *ShardedProcess) Groups() []types.GroupID { return types.RangeGroups(len(p.byGroup)) }

// Group returns the per-group handle of group g — the same API a
// single-group cluster's Process offers (Broadcast, Deliveries, Views,
// CurrentPrimary, Established, Stats...).
func (p *ShardedProcess) Group(g types.GroupID) (*Process, bool) {
	if g < 0 || int(g) >= len(p.byGroup) {
		return nil, false
	}
	return p.byGroup[g], true
}

// Submit routes a keyed payload to its group by consistent hash and
// broadcasts it there, reporting false if that group's stack has stopped.
func (p *ShardedProcess) Submit(key, payload string) bool {
	return p.byGroup[p.ring.Group(key)].Broadcast(payload)
}

// SubmitKey returns the group a key routes to.
func (p *ShardedProcess) SubmitKey(key string) types.GroupID { return p.ring.Group(key) }

// SubmitMulti atomically multicasts a payload to the destination groups:
// every addressed group delivers it, and any two groups sharing two
// multicasts deliver them in the same relative order. It needs two or more
// groups.
func (p *ShardedProcess) SubmitMulti(dests []types.GroupID, payload string) error {
	if p.mc == nil {
		return errors.New("dvs: SubmitMulti requires two or more groups")
	}
	return p.mc.Submit(dests, payload)
}

// McastDelivered returns a copy of group g's multicast delivery history at
// this process, in delivery order (nil at one group).
func (p *ShardedProcess) McastDelivered(g types.GroupID) []McastDelivery {
	if p.mc == nil {
		return nil
	}
	return p.mc.Delivered(g)
}

// McastStats returns the multicast coordinator's counters (zero at one
// group).
func (p *ShardedProcess) McastStats() mcast.Stats {
	if p.mc == nil {
		return mcast.Stats{}
	}
	return p.mc.Stats()
}

// MuxDropped returns the process's group-multiplexer drop counter
// (untagged frames, unknown groups, overflowed group inboxes; zero at one
// group).
func (p *ShardedProcess) MuxDropped() uint64 {
	if p.mux == nil {
		return 0
	}
	return p.mux.Dropped()
}

// McastLog returns this process's recorded multicast trace, and whether
// one was recorded (two or more groups, with recording on). Harvest after
// Close and check with conform.ReplayMcast together with the other
// processes' logs.
func (p *ShardedProcess) McastLog() (conform.McastLog, bool) {
	if p.mrec == nil {
		return conform.McastLog{}, false
	}
	return p.mrec.Log(), true
}

// GroupTraceLog returns group g's recorded protocol trace, and whether it
// was recorded. Each group's logs replay as their own set: the trace of
// one group is one run of the single-group protocol. Harvest after Close.
func (p *ShardedProcess) GroupTraceLog(g types.GroupID) (TraceLog, bool) {
	h, ok := p.Group(g)
	if !ok || h.rec == nil {
		return TraceLog{}, false
	}
	return h.rec.Log(), true
}
