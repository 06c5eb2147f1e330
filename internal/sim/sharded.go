package sim

import (
	"fmt"
	"strconv"
	"time"

	dvs "repro"
	"repro/internal/protocol/mcastcore"
	"repro/internal/types"
)

// ShardedConfig configures the sharded-throughput experiment (E14): N
// independent groups over one shared transport, keyed traffic routed by
// consistent hash, and a fixed fraction of cross-group atomic multicasts.
type ShardedConfig struct {
	Processes int
	Groups    int
	Senders   int
	Duration  time.Duration
	// CrossFrac is the fraction of submissions sent as two-group atomic
	// multicasts instead of keyed single-group broadcasts (0 <= f < 1).
	CrossFrac float64
	Seed      int64
	// StreamDir, when non-empty, records every group's macro-steps into a
	// sharded trace directory (plus the multicast logs); verify it with
	// dvs.ReplayShardedTrace after the run.
	StreamDir string
}

func (c *ShardedConfig) fill() {
	if c.Processes == 0 {
		c.Processes = 4
	}
	if c.Groups == 0 {
		c.Groups = 2
	}
	if c.Senders == 0 {
		c.Senders = c.Processes
	}
	if c.Duration <= 0 {
		c.Duration = 500 * time.Millisecond
	}
}

// ShardedResult summarizes a sharded throughput run.
type ShardedResult struct {
	Processes int
	Groups    int
	CrossFrac float64 // as sent: 0 with one group, since a multicast needs two
	Keyed     int     // accepted keyed submissions
	Multis    int     // submitted cross-group multicasts
	Delivered int     // deliveries observed at process 0, summed over groups
	Elapsed   time.Duration
	// Consistent is true when every group's delivery streams agree and
	// every process's every multicast history passes the multicast safety
	// suite (mcastcore.CheckAll).
	Consistent bool
	Run        RunStats
}

// PerSecond is the aggregate delivery rate observed at one process.
func (r ShardedResult) PerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Delivered) / r.Elapsed.Seconds()
}

// String renders one result row.
func (r ShardedResult) String() string {
	return fmt.Sprintf("n=%-2d groups=%-2d cross=%.0f%% keyed=%-6d multi=%-4d delivered=%-6d rate=%.0f msg/s consistent=%v",
		r.Processes, r.Groups, 100*r.CrossFrac, r.Keyed, r.Multis, r.Delivered, r.PerSecond(), r.Consistent)
}

// Sharded pumps mixed keyed and cross-group traffic through a sharded
// cluster and measures the aggregate totally-ordered delivery rate. Keyed
// submissions route by consistent hash and execute on independent
// per-group stacks — aggregate throughput should scale with the group
// count (E14) — while the cross-group fraction exercises the atomic
// multicast, whose two-group messages pin the shared order. With one group
// the traffic is keyed only.
func Sharded(cfg ShardedConfig) (ShardedResult, error) {
	cfg.fill()
	if cfg.Groups < 2 {
		cfg.CrossFrac = 0
	}
	cl, err := dvs.NewShardedCluster(dvs.ShardedConfig{
		Processes: cfg.Processes, Groups: cfg.Groups, Seed: cfg.Seed,
		Record: cfg.StreamDir != "", StreamDir: cfg.StreamDir,
	})
	if err != nil {
		return ShardedResult{}, err
	}
	defer cl.Close()
	groups := cl.Groups()
	settle(50 * time.Millisecond)

	res := ShardedResult{Processes: cfg.Processes, Groups: cfg.Groups, CrossFrac: cfg.CrossFrac}
	streams := make(map[types.GroupID][][]dvs.Delivery, len(groups))
	handles := make(map[types.GroupID][]*dvs.Process, len(groups))
	var all []*dvs.Process
	for _, g := range groups {
		streams[g] = make([][]dvs.Delivery, cfg.Processes)
		handles[g] = make([]*dvs.Process, cfg.Processes)
		for i := 0; i < cfg.Processes; i++ {
			h, ok := cl.Process(i).Group(g)
			if !ok {
				return res, fmt.Errorf("process %d missing group %s", i, g)
			}
			handles[g][i] = h
			all = append(all, h)
		}
	}
	drainAll := func() int {
		for _, g := range groups {
			for i := 0; i < cfg.Processes; i++ {
				Drain(handles[g][i], &streams[g][i])
			}
		}
		total := 0
		for _, g := range groups {
			total += len(streams[g][0])
		}
		return total
	}

	// The pump interleaves keyed submissions with cross-group multicasts at
	// the configured fraction, windowed on outstanding traffic so a slow
	// group applies backpressure instead of flooding its inbox.
	expectMulti := 0 // multicast deliveries due at process 0, over all groups
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	const window = 256
	i, crossCredit := 0, 0.0
	for time.Now().Before(deadline) {
		at0 := drainAll()
		if res.Keyed+res.Multis-at0 >= window {
			time.Sleep(time.Millisecond)
			continue
		}
		sender := cl.Process(i % cfg.Senders)
		crossCredit += cfg.CrossFrac
		if crossCredit >= 1 {
			crossCredit--
			dests := types.DedupGroups([]types.GroupID{groups[i%len(groups)], groups[(i+1)%len(groups)]})
			if err := sender.SubmitMulti(dests, "x"+strconv.Itoa(i)); err != nil {
				return res, fmt.Errorf("multicast submit: %w", err)
			}
			res.Multis++
			expectMulti += len(dests)
		} else if sender.Submit("key-"+strconv.Itoa(i), "m"+strconv.Itoa(i)) {
			res.Keyed++
		}
		i++
	}
	// Allow in-flight traffic to finish: process 0's streams must reach the
	// accepted totals (every keyed submit plus each group's multicasts).
	want := res.Keyed + expectMulti
	flushDeadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(flushDeadline) {
		if drainAll() >= want {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.Elapsed = time.Since(start)
	res.Delivered = drainAll()

	// Safety: per-group total order, then the multicast suite over every
	// process's every group history.
	res.Consistent = true
	for _, g := range groups {
		if err := CheckDeliverySequences(streams[g]); err != nil {
			res.Consistent = false
		}
	}
	var hist []mcastcore.DeliverySeq
	for _, sp := range cl.Processes() {
		for _, g := range groups {
			hist = append(hist, mcastcore.DeliverySeq{P: sp.ID(), G: g, Deliveries: sp.McastDelivered(g)})
		}
	}
	if err := mcastcore.CheckAll(hist); err != nil {
		res.Consistent = false
	}
	res.Run = captureRunStats(cl.NetStats(), all)
	return res, nil
}
