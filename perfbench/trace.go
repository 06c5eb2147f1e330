package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dvs "repro"
	netfab "repro/internal/net"
	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/mcastcore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// Span names. A span covers one call from the benchmark into a layer.
const (
	spanSubmit    uint8 = iota + 1 // Broadcast / Submit / SubmitMulti
	spanDeliver                    // handling one delivery taken off a Deliveries channel
	spanSend                       // Transport.Send, through NodeConfig.WrapTransport
	spanRestep                     // re-stepping one node's recorded log
	spanDVSStep                    // one dvscore.Step
	spanTOStep                     // one tocore.Step
	spanMcastStep                  // one mcastcore.Step
)

var spanNames = map[uint8]string{
	spanSubmit: "submit", spanDeliver: "deliver", spanSend: "net.send", spanRestep: "restep",
	spanDVSStep: "dvscore.step", spanTOStep: "tocore.step", spanMcastStep: "mcastcore.step",
}

// span is one traced interval. parent is the index+1 of the span that
// caused it (0: none); req is the payload id it serves (0: none).
type span struct {
	start, end int64
	parent     int32
	req        uint32
	name       uint8
}

// traceSample: spans are kept for one request id, one send and one core
// step in traceSample, so a run's spans fit a fixed in-memory buffer.
const traceSample = 16

// tracer records spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  *offHeap[span]
	submit *offHeap[int32] // span index+1 of each traced request's submit

	sends     atomic.Uint64
	sendNanos atomic.Int64
}

func newTracer(capIDs int) (*tracer, error) {
	spans, err := newOffHeap[span](1 << 20)
	if err != nil {
		return nil, err
	}
	sub, err := newOffHeap[int32](capIDs/traceSample + 2)
	if err != nil {
		spans.free()
		return nil, err
	}
	sub.buf = sub.buf[:cap(sub.buf)]
	return &tracer{epoch: time.Now(), spans: spans, submit: sub}, nil
}

func (t *tracer) free() {
	t.spans.free()
	t.submit.free()
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records s and returns its index+1, or 0 once the buffer is full.
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans.add(s); t.spans.full {
		return 0
	}
	return int32(len(t.spans.buf))
}

// end closes the span add returned (a no-op for 0).
func (t *tracer) end(idx int32) {
	if idx == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans.buf[idx-1].end = t.now()
}

func (t *tracer) submitted(id uint32, start, end int64) {
	if id%traceSample != 0 {
		return
	}
	idx := t.add(span{start: start, end: end, req: id, name: spanSubmit})
	atomic.StoreInt32(&t.submit.buf[id/traceSample], idx)
}

func (t *tracer) delivery(id uint32, start, end int64) {
	if id%traceSample != 0 {
		return
	}
	parent := atomic.LoadInt32(&t.submit.buf[id/traceSample])
	t.add(span{start: start, end: end, parent: parent, req: id, name: spanDeliver})
}

// write saves the spans as CSV: name,start_ns,end_ns,parent,req.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,req")
	for _, s := range t.spans.items() {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", spanNames[s.name], s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedTransport times every Transport.Send of a TCP node.
type timedTransport struct {
	netfab.Transport
	t *tracer
}

func (tt timedTransport) Send(from, to types.ProcID, p netfab.Payload) bool {
	start := tt.t.now()
	ok := tt.Transport.Send(from, to, p)
	end := tt.t.now()
	n := tt.t.sends.Add(1)
	tt.t.sendNanos.Add(end - start)
	if n%traceSample == 0 {
		tt.t.add(span{start: start, end: end, name: spanSend})
	}
	return ok
}

// loopSampler measures event-loop wait: the round trip of a no-op call
// (AmbiguousViews) through each stack's loop, one stack per period.
type loopSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // microseconds; read only after stopSampler
}

func startSampler(hs []*dvs.Process, period time.Duration) *loopSampler {
	s := &loopSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			start := time.Now()
			hs[i%len(hs)].AmbiguousViews()
			s.samples = append(s.samples, float64(time.Since(start))/1e3)
		}
	}()
	return s
}

func (s *loopSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// cpuShares splits a CPU profile's samples over the layers of cpuPackages
// with the toolchain's pprof. Each sample goes to the innermost frame of its
// stack that belongs to one of the repository's layers, so the runtime and
// library work a layer calls (allocation, string building, gob) counts for
// that layer; a stack with no such frame counts for go.runtime when it is
// all runtime (collector, scheduler) and for "other" otherwise (the
// benchmark itself).
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	by := make(map[string]float64)
	total := 0.0
	var weight float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			by[stackLayer(stack)] += weight
			total += weight
		}
		stack = stack[:0]
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(stack) == 0 && len(f) >= 2 {
			d, err := time.ParseDuration(f[0])
			if err != nil {
				continue // the header above the first sample
			}
			weight = float64(d)
			stack = append(stack, f[1])
			continue
		}
		if len(stack) > 0 {
			stack = append(stack, f[0])
		}
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: the profile holds no samples")
	}
	shares := make(map[string]float64, len(cpuPackages)+1)
	for _, p := range cpuPackages {
		shares[p.name] = by[p.name] / total
	}
	shares["other"] = by["other"] / total
	return shares, nil
}

// stackLayer attributes one sampled stack, leaf first.
func stackLayer(stack []string) string {
	allRuntime := true
	for _, fn := range stack {
		pkg := pkgOf(fn)
		runtimePkg := pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
		if !runtimePkg {
			allRuntime = false
			for _, p := range cpuPackages {
				if pkg == p.path {
					return p.name
				}
			}
		}
	}
	if allRuntime {
		return "go.runtime"
	}
	return "other"
}

// pkgOf returns the import path of a profiled function name such as
// "repro/internal/vsg.(*Node).run".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// restep re-executes recorded core logs through fresh cores, timing every
// Step call, and compares each re-derived effect sequence with the recorded
// one. The timed steps are therefore exactly the steps the run executed.
type restepResult struct {
	dvsNs, toNs, mcNs        []float64
	dvsAllocs, toAllocs      uint64
	summaries, summaryLabels int
	divergences              []string
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func restepLogs(t *tracer, logs []dvs.TraceLog, mlogs []dvs.McastTraceLog, res *restepResult) {
	diverged := func(layer string, p types.ProcID, i int, want, got string) {
		if len(res.divergences) < 5 {
			res.divergences = append(res.divergences, fmt.Sprintf("%s step %d at %s: recorded %q, re-derived %q", layer, i, p, want, got))
		} else if len(res.divergences) == 5 {
			res.divergences = append(res.divergences, "...")
		}
	}
	for _, lg := range logs {
		if lg.Static {
			diverged("dvs", lg.P, 0, "dynamic log", "static log")
			continue
		}
		parent := t.add(span{start: t.now(), name: spanRestep, req: 0})
		dn := dvscore.NewNode(lg.P, lg.Initial, lg.InP0)
		outs := make([][]dvscore.Effect, len(lg.DVS))
		a0 := heapObjects()
		for i, rec := range lg.DVS {
			var out dvscore.Outbox
			start := t.now()
			dvscore.Step(dn, rec.Ev, lg.GC, &out)
			end := t.now()
			res.dvsNs = append(res.dvsNs, float64(end-start))
			if i%traceSample == 0 {
				t.add(span{start: start, end: end, parent: parent, name: spanDVSStep})
			}
			outs[i] = out.Effects
		}
		res.dvsAllocs += heapObjects() - a0
		for i, rec := range lg.DVS {
			if want, got := renderDVS(rec.Fx), renderDVS(outs[i]); want != got {
				diverged("dvs", lg.P, i, want, got)
			}
		}

		tn := tocore.NewNode(lg.P, lg.Initial, lg.InP0, false)
		touts := make([][]tocore.Effect, len(lg.TO))
		errs := make([]error, len(lg.TO))
		a0 = heapObjects()
		for i, rec := range lg.TO {
			var out tocore.Outbox
			start := t.now()
			errs[i] = tocore.Step(tn, rec.Ev, lg.Register, &out)
			end := t.now()
			res.toNs = append(res.toNs, float64(end-start))
			if i%traceSample == 0 {
				t.add(span{start: start, end: end, parent: parent, name: spanTOStep})
			}
			touts[i] = out.Effects
		}
		res.toAllocs += heapObjects() - a0
		for i, rec := range lg.TO {
			want, got := renderTO(rec.Fx), renderTO(touts[i])
			if errs[i] != nil {
				got = "error: " + errs[i].Error()
			}
			if want != got {
				diverged("to", lg.P, i, want, got)
			}
			for _, fx := range rec.Fx {
				if s, ok := fx.(tocore.FxSend); ok {
					if sm, ok := s.M.(tocore.SummaryMsg); ok {
						res.summaries++
						res.summaryLabels += len(sm.X.Con)
					}
				}
			}
		}
		t.end(parent)
	}
	for _, lg := range mlogs {
		parent := t.add(span{start: t.now(), name: spanRestep})
		n := mcastcore.NewNode(lg.P, lg.Groups)
		for i, rec := range lg.Steps {
			var out mcastcore.Outbox
			start := t.now()
			err := mcastcore.Step(n, rec.Ev, &out)
			end := t.now()
			res.mcNs = append(res.mcNs, float64(end-start))
			if i%traceSample == 0 {
				t.add(span{start: start, end: end, parent: parent, name: spanMcastStep})
			}
			want, got := fmt.Sprintf("%v", rec.Fx), fmt.Sprintf("%v", out.Effects)
			if err != nil {
				got = "error: " + err.Error()
			}
			if want != got {
				diverged("mcast", lg.P, i, want, got)
			}
		}
		t.end(parent)
	}
}

// renderDVS and renderTO give effects the canonical message keys the
// conformance replayer compares; two sequences are equal when they render
// equal.
func renderDVS(fx []dvscore.Effect) string {
	var b strings.Builder
	for _, f := range fx {
		switch f := f.(type) {
		case dvscore.FxSendVS:
			b.WriteString("send " + f.M.MsgKey())
		case dvscore.FxDeliver:
			b.WriteString("deliver " + f.M.MsgKey() + " from " + f.From.String())
		case dvscore.FxSafeInd:
			b.WriteString("safe " + f.M.MsgKey() + " from " + f.From.String())
		case dvscore.FxNewPrimary:
			b.WriteString("newview " + f.View.String())
		case dvscore.FxGC:
			b.WriteString("gc " + f.View.String())
		default:
			fmt.Fprintf(&b, "effect? %T", f)
		}
		b.WriteString("; ")
	}
	return b.String()
}

func renderTO(fx []tocore.Effect) string {
	var b strings.Builder
	for _, f := range fx {
		switch f := f.(type) {
		case tocore.FxLabel:
			b.WriteString("label " + f.A)
		case tocore.FxSend:
			b.WriteString("send " + f.M.MsgKey())
		case tocore.FxConfirm:
			b.WriteString("confirm")
		case tocore.FxDeliver:
			b.WriteString("deliver " + f.A + "@" + f.Origin.String())
		case tocore.FxRegister:
			b.WriteString("register " + f.View.String())
		default:
			fmt.Fprintf(&b, "effect? %T", f)
		}
		b.WriteString("; ")
	}
	return b.String()
}

// mean of values (0 when empty).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

func p99(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 99)
}
