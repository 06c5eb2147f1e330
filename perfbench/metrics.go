package main

// metricDef names one reported metric and its unit. endToEnd metrics are
// printed by untraced runs (--trace 0), the rest by traced runs (--trace 1).
type metricDef struct {
	name, unit string
	endToEnd   bool
}

// cpuPackages are the layers the traced run's CPU profile is split over:
// the metric prefix and the import path whose functions count for it.
var cpuPackages = []struct{ name, path string }{
	{"net", "repro/internal/net"},
	{"member", "repro/internal/member"},
	{"vsg", "repro/internal/vsg"},
	{"dvsg", "repro/internal/dvsg"},
	{"dvscore", "repro/internal/protocol/dvscore"},
	{"tob", "repro/internal/tob"},
	{"tocore", "repro/internal/protocol/tocore"},
	{"mcast", "repro/internal/mcast"},
	{"mcastcore", "repro/internal/protocol/mcastcore"},
	{"shard", "repro/internal/shard"},
	{"conform", "repro/internal/conform"},
	{"types", "repro/internal/types"},
	{"go.runtime", "runtime"},
}

var metricDefs = func() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", true},
		{"tput_msgs", "msg/s", true},
		{"cpu_us_per_msg", "us", true},
		{"lat_p50_ms", "ms", true},
		{"lat_p99_ms", "ms", true},
		{"mcast_lat_p50_ms", "ms", true},
		{"mcast_lat_p99_ms", "ms", true},
		{"outage_p50_ms", "ms", true},
		{"heap_mb", "MiB", true},

		{"net.sends_per_msg", "sends/msg", false},
		{"net.drop_frac", "fraction", false},
		{"net.frames_per_flush", "frames/flush", false},
		{"net.send_ns", "ns", false},
		{"net.mux_dropped", "count", false},
		{"member.heartbeats_per_s", "1/s", false},
		{"vsg.views_per_fault", "views/fault", false},
		{"vsg.retransmits_per_kmsg", "1/kmsg", false},
		{"vsg.deliver_ms", "ms", false},
		{"vsg.loop_wait_us_p50", "us", false},
		{"vsg.loop_wait_us_p99", "us", false},
		{"dvsg.payloads_per_frame", "payloads/frame", false},
		{"dvsg.max_amb", "count", false},
		{"dvscore.steps_per_msg", "steps/msg", false},
		{"dvscore.step_ns", "ns", false},
		{"dvscore.step_ns_p99", "ns", false},
		{"dvscore.allocs_per_step", "allocs/step", false},
		{"tob.batch_size", "msgs/batch", false},
		{"tob.state_exchanges", "1/fault", false},
		{"tob.flush_discards", "count", false},
		{"tob.dropped_up", "count", false},
		{"tocore.steps_per_msg", "steps/msg", false},
		{"tocore.step_ns", "ns", false},
		{"tocore.step_ns_p99", "ns", false},
		{"tocore.allocs_per_step", "allocs/step", false},
		{"tocore.summary_labels", "labels", false},
		{"mcast.submit_us", "us", false},
		{"mcast.control_per_mcast", "msgs/mcast", false},
		{"mcast.dropped", "count", false},
		{"mcastcore.step_ns", "ns", false},
		{"shard.skew", "ratio", false},
		{"conform.trace_bytes_per_msg", "B/msg", false},
		{"conform.replay_steps_per_s", "steps/s", false},
		{"go.allocs_per_msg", "allocs/msg", false},
		{"go.alloc_kb_per_msg", "KiB/msg", false},
		{"go.gc_per_kmsg", "GCs/kmsg", false},
	}
	for _, p := range cpuPackages {
		defs = append(defs, metricDef{p.name + ".cpu_share", "fraction", false})
	}
	return append(defs,
		metricDef{"other.cpu_share", "fraction", false},
		metricDef{"bench.gen_late_ms_p99", "ms", false},
		metricDef{"bench.trace_overhead", "ratio", false},
	)
}()
