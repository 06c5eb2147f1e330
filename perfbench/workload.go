package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	dvs "repro"
	netfab "repro/internal/net"
	"repro/internal/types"
)

// workload is one named input mix. Every field except the run length is
// part of the workload's definition: results from two runs compare only
// when their workloads are equal (see compare.go).
type workload struct {
	Name     string  `json:"name"`
	Runtime  string  `json:"runtime"` // "memory", "tcp" or "sharded"
	Procs    int     `json:"procs"`
	Groups   int     `json:"groups"`
	Loop     string  `json:"loop"`                // "closed" or "open"
	Window   int     `json:"window,omitempty"`    // closed loop: outstanding broadcasts
	Rate     float64 `json:"rate,omitempty"`      // open loop: messages offered per second, in total
	Senders  []int   `json:"senders"`             // submitting processes, used round robin
	Payload  int     `json:"payload_bytes"`       // bytes per payload
	Cross    float64 `json:"cross_frac"`          // share of two-group multicasts
	Churn    bool    `json:"churn"`               // partition {3,4} away, heal, repeat
	HoldMs   [2]int  `json:"hold_ms,omitempty"`   // fault state held for a seed-drawn [min, max) ms
	Stream   bool    `json:"stream"`              // record the run into a TraceStream and replay it
	WarmupMs int     `json:"warmup_ms"`           // load before the measured phase
	DrainMs  int     `json:"drain_ms"`            // wait for deliveries after the load stops
	KeySpace int     `json:"key_space,omitempty"` // distinct seed-drawn keys (sharded)
	RecordMs int     `json:"record_ms,omitempty"` // traced run: length of the recorded re-step run (0: the whole run)
	// EpisodeMs caps how long one deployment is loaded (0: the whole run);
	// longer runs are split into equal episodes on fresh deployments. The
	// runtime keeps every delivered payload, so a saturating load grows the
	// heap without bound and after about 8 s at saturation views thrash;
	// capping the history keeps such a workload in one regime.
	EpisodeMs int `json:"episode_ms,omitempty"`
}

// setups is how many times a run sets a deployment up before its first
// episode; setup_s is their median.
const setups = 25

// window is the interval of the outage and tail metrics on a workload
// without faults: short enough that the host's own stalls (about one a
// second) hit a minority of windows.
const window = 100 * time.Millisecond

// workloads are the benchmark's inputs; BENCHMARK.json names them and says
// why each was chosen (README.md has the longer account).
var workloads = []workload{
	{
		// The steady-state hot path: vsg → dvsg/dvscore → tob/tocore over
		// the in-memory fabric, no TCP, multicast, membership or checking.
		Name: "to-mem-sat", Runtime: "memory", Procs: 5, Groups: 1,
		Loop: "closed", Window: 256, Senders: []int{0, 1, 2, 3, 4}, Payload: 16,
		WarmupMs: 500, DrainMs: 5000, RecordMs: 1000, EpisodeMs: 3000,
	},
	{
		// The only workload that crosses real sockets: at 1 KiB the gob
		// codec, the gathering writer and the socket writes dominate.
		Name: "to-tcp-1k", Runtime: "tcp", Procs: 3, Groups: 1,
		Loop: "closed", Window: 256, Senders: []int{0, 1, 2}, Payload: 1024,
		WarmupMs: 500, DrainMs: 5000, RecordMs: 1000, EpisodeMs: 2000,
	},
	{
		// The only workload through GroupMux, the shard ring, the mcast
		// coordinator and sender, and mcastcore. Open loop, because the
		// closed-loop sharded number collapses with cross-group traffic and
		// measures no capacity.
		Name: "sharded-rate", Runtime: "sharded", Procs: 4, Groups: 4,
		Loop: "open", Rate: 5000, Senders: []int{0, 1, 2, 3}, Payload: 16, Cross: 0.10,
		WarmupMs: 1000, DrainMs: 5000, KeySpace: 4096, RecordMs: 2000, EpisodeMs: 2500,
	},
	{
		// The only workload where membership, view installation, the
		// dvscore information exchange, the tocore state exchange and the
		// stream recorder do real work.
		Name: "churn-rec", Runtime: "memory", Procs: 5, Groups: 1,
		Loop: "open", Rate: 100, Senders: []int{0, 1, 2}, Payload: 16,
		Churn: true, HoldMs: [2]int{1000, 1500}, Stream: true,
		WarmupMs: 1000, DrainMs: 10000, EpisodeMs: 5000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildOpts selects the instrumentation a deployment is built with.
type buildOpts struct {
	record    bool                                    // Config.Record: in-memory core logs for re-stepping
	wrap      func(netfab.Transport) netfab.Transport // TCP only: NodeConfig.WrapTransport
	scratch   string                                  // directory for trace streams
	streamTag string                                  // distinguishes stream directories of one run
}

// deployment is one running system under test, reached only through the
// public runtime API: ep[p][g] is process p's handle for group g.
type deployment struct {
	w       workload
	ep      [][]*dvs.Process
	mem     *dvs.Cluster
	sharded *dvs.ShardedCluster
	nodes   []*dvs.Node

	stream    *dvs.TraceStream
	streamDir string
}

// deploy constructs the workload's runtime.
func deploy(w workload, seed int64, o buildOpts) (*deployment, error) {
	d := &deployment{w: w, ep: make([][]*dvs.Process, w.Procs)}
	switch w.Runtime {
	case "memory":
		cfg := dvs.Config{Processes: w.Procs, Seed: seed, Record: o.record}
		if w.Stream {
			d.streamDir = filepath.Join(o.scratch, "stream-"+o.streamTag)
			if err := os.RemoveAll(d.streamDir); err != nil {
				return nil, err
			}
			st, err := dvs.NewTraceStream(d.streamDir, dvs.TraceStreamOptions{})
			if err != nil {
				return nil, fmt.Errorf("trace stream: %w", err)
			}
			d.stream, cfg.Stream = st, st
		}
		cl, err := dvs.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		d.mem = cl
		for p := 0; p < w.Procs; p++ {
			d.ep[p] = []*dvs.Process{cl.Process(p)}
		}
	case "sharded":
		cl, err := dvs.NewShardedCluster(dvs.ShardedConfig{Processes: w.Procs, Groups: w.Groups, Seed: seed, Record: o.record})
		if err != nil {
			return nil, err
		}
		d.sharded = cl
		for p := 0; p < w.Procs; p++ {
			for _, g := range cl.Groups() {
				h, ok := cl.Process(p).Group(g)
				if !ok {
					cl.Close()
					return nil, fmt.Errorf("process %d has no group %s", p, g)
				}
				d.ep[p] = append(d.ep[p], h)
			}
		}
	case "tcp":
		if err := d.startNodes(o); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown runtime %q", w.Runtime)
	}
	return d, nil
}

// startNodes launches the TCP nodes on free loopback ports. A port picked
// free can be taken before the node binds it; that start is retried on
// fresh ports.
func (d *deployment) startNodes(o buildOpts) error {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		addrs, err := freeAddrs(d.w.Procs)
		if err != nil {
			return err
		}
		d.nodes = d.nodes[:0]
		for i := 0; i < d.w.Procs && err == nil; i++ {
			peers := make(map[int]string, d.w.Procs-1)
			for j, a := range addrs {
				if j != i {
					peers[j] = a
				}
			}
			var n *dvs.Node
			n, err = dvs.StartNode(dvs.NodeConfig{
				ID: i, Processes: d.w.Procs, Listen: addrs[i], Peers: peers,
				Record: o.record, WrapTransport: o.wrap,
			})
			if err == nil {
				d.nodes = append(d.nodes, n)
			}
		}
		if err == nil {
			for p, n := range d.nodes {
				h, _ := n.Group(0)
				d.ep[p] = []*dvs.Process{h}
			}
			return nil
		}
		lastErr = err
		for _, n := range d.nodes {
			n.Close()
		}
	}
	return fmt.Errorf("starting TCP nodes: %w", lastErr)
}

func freeAddrs(n int) ([]string, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		ls = append(ls, l)
		out = append(out, l.Addr().String())
	}
	return out, nil
}

// ready reports whether every process has an established primary that
// contains every process, in every group.
func (d *deployment) ready() bool {
	for _, hs := range d.ep {
		for _, h := range hs {
			v, ok := h.CurrentPrimary()
			if !ok || v.Members.Len() != d.w.Procs || !h.Established() {
				return false
			}
		}
	}
	return true
}

// awaitReady polls ready until it holds or the timeout passes.
func (d *deployment) awaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !d.ready() {
		if time.Now().After(deadline) {
			return fmt.Errorf("no full established primary within %v", timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// broadcast submits a single-group payload from process p.
func (d *deployment) broadcast(p int, payload string) bool {
	if d.nodes != nil {
		return d.nodes[p].Broadcast(payload)
	}
	return d.ep[p][0].Broadcast(payload)
}

func (d *deployment) partition(groups ...[]int) {
	if d.mem != nil {
		d.mem.Partition(groups...)
	} else if d.sharded != nil {
		d.sharded.Partition(groups...)
	}
}

func (d *deployment) heal() {
	if d.mem != nil {
		d.mem.Heal()
	} else if d.sharded != nil {
		d.sharded.Heal()
	}
}

// netStats returns one counter snapshot per transport.
func (d *deployment) netStats() []netfab.Stats {
	switch {
	case d.mem != nil:
		return []netfab.Stats{d.mem.NetStats()}
	case d.sharded != nil:
		return []netfab.Stats{d.sharded.NetStats()}
	}
	out := make([]netfab.Stats, len(d.nodes))
	for i, n := range d.nodes {
		out[i] = n.NetStats()
	}
	return out
}

// close stops every process (and seals the trace stream, if any).
func (d *deployment) close() error {
	var err error
	switch {
	case d.mem != nil:
		d.mem.Close()
	case d.sharded != nil:
		err = d.sharded.Close()
	default:
		for _, n := range d.nodes {
			n.Close()
		}
	}
	if d.stream != nil {
		if cerr := d.stream.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("sealing trace stream: %w", cerr)
		}
		d.stream = nil
	}
	return err
}

// groupIDs returns the group ids of the deployment, in handle order.
func (d *deployment) groupIDs() []types.GroupID {
	if d.sharded != nil {
		return d.sharded.Groups()
	}
	return []types.GroupID{0}
}

// traceBytes is the size of the recorded trace stream on disk.
func (d *deployment) traceBytes() (int64, error) {
	var total int64
	err := filepath.Walk(d.streamDir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
