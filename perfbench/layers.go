package main

import (
	"time"

	"repro/internal/dvsg"
	"repro/internal/mcast"
	netfab "repro/internal/net"
	"repro/internal/tob"
	"repro/internal/vsg"
)

// snapshot is the sum of every layer's public counters over all stacks and
// transports of a deployment at one instant.
type snapshot struct {
	at     int64 // ns since the run epoch
	stacks int
	net    netfab.Stats
	vs     vsg.Stats
	dvs    dvsg.Stats
	tob    tob.Stats
	mc     mcast.Stats
	mux    uint64
	netErr error // first transport whose Sent != Delivered + Dropped
}

func (r *run) snapshot() snapshot {
	s := snapshot{at: r.now()}
	for _, ns := range r.dep.netStats() {
		if err := ns.CheckInvariant(); err != nil && s.netErr == nil {
			s.netErr = err
		}
		s.net.Sent += ns.Sent
		s.net.Delivered += ns.Delivered
		s.net.Dropped += ns.Dropped
		s.net.WriterFrames += ns.WriterFrames
		s.net.WriterFlushes += ns.WriterFlushes
	}
	for _, hs := range r.dep.ep {
		for _, h := range hs {
			s.stacks++
			v := h.VSStats()
			s.vs.ViewsInstalled += v.ViewsInstalled
			s.vs.Heartbeats += v.Heartbeats
			s.vs.Retransmits += v.Retransmits
			s.vs.LatencySamples += v.LatencySamples
			s.vs.LatencyTotal += v.LatencyTotal
			t, d := h.Stats()
			s.tob.BatchesOut += t.BatchesOut
			s.tob.PayloadsOut += t.PayloadsOut
			s.tob.StateExchanges += t.StateExchanges
			s.tob.FlushDiscards += t.FlushDiscards
			s.tob.DroppedUp += t.DroppedUp
			s.dvs.WireFrames += d.WireFrames
			s.dvs.WirePayloads += d.WirePayloads
			if d.MaxAmb > s.dvs.MaxAmb {
				s.dvs.MaxAmb = d.MaxAmb
			}
		}
	}
	if sc := r.dep.sharded; sc != nil {
		for _, sp := range sc.Processes() {
			s.mux += sp.MuxDropped()
			m := sp.McastStats()
			s.mc.Submitted += m.Submitted
			s.mc.ControlSent += m.ControlSent
			s.mc.DroppedSends += m.DroppedSends
			s.mc.Rejected += m.Rejected
			s.mc.BadFrames += m.BadFrames
		}
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the counters into per-layer metrics. Rates divide the
// change over the measured phase (from a to b) by what process 0 delivered
// in it; counts and high-water marks are the totals at the end of the run
// (end), taken after the drain.
func (r *run) layerMetrics(m map[string]float64, a, b, end snapshot) {
	delivered := m["delivered"]
	elapsed := time.Duration(b.at - a.at).Seconds()
	m["net.sends_per_msg"] = ratio(float64(b.net.Sent-a.net.Sent), delivered)
	m["net.drop_frac"] = ratio(float64(end.net.Dropped), float64(end.net.Sent))
	m["net.frames_per_flush"] = ratio(float64(b.net.WriterFrames-a.net.WriterFrames), float64(b.net.WriterFlushes-a.net.WriterFlushes))
	m["net.mux_dropped"] = float64(end.mux)
	m["member.heartbeats_per_s"] = ratio(float64(b.vs.Heartbeats-a.vs.Heartbeats), elapsed)
	// Every stack installs the initial view once; each fault adds the rest.
	faults := float64(r.faultEvents)
	if faults == 0 {
		m["vsg.views_per_fault"] = ratio(float64(end.vs.ViewsInstalled), float64(end.stacks))
	} else {
		m["vsg.views_per_fault"] = ratio(float64(end.vs.ViewsInstalled)-float64(end.stacks), float64(end.stacks)*faults)
	}
	m["vsg.retransmits_per_kmsg"] = ratio(float64(b.vs.Retransmits-a.vs.Retransmits)*1000, delivered)
	m["vsg.deliver_ms"] = ratio(float64(b.vs.LatencyTotal-a.vs.LatencyTotal)/1e6, float64(b.vs.LatencySamples-a.vs.LatencySamples))
	m["dvsg.payloads_per_frame"] = ratio(float64(b.dvs.WirePayloads-a.dvs.WirePayloads), float64(b.dvs.WireFrames-a.dvs.WireFrames))
	m["dvsg.max_amb"] = float64(end.dvs.MaxAmb)
	m["tob.batch_size"] = ratio(float64(b.tob.PayloadsOut-a.tob.PayloadsOut), float64(b.tob.BatchesOut-a.tob.BatchesOut))
	m["tob.state_exchanges"] = ratio(float64(end.tob.StateExchanges), faults)
	m["tob.flush_discards"] = float64(end.tob.FlushDiscards)
	m["tob.dropped_up"] = float64(end.tob.DroppedUp)
	m["mcast.control_per_mcast"] = ratio(float64(b.mc.ControlSent-a.mc.ControlSent), float64(b.mc.Submitted-a.mc.Submitted))
	m["mcast.dropped"] = float64(end.mc.DroppedSends + end.mc.Rejected + end.mc.BadFrames)
}
