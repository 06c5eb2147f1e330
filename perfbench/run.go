package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	dvs "repro"
	"repro/internal/protocol/mcastcore"
	"repro/internal/sim"
	"repro/internal/types"
)

// msgMeta is what the generator knows about one submission; message id i
// lives at index i-1.
type msgMeta struct {
	due      int64 // scheduled (open loop) or actual (closed loop) send time, ns since the run epoch
	late     int64 // how far behind its schedule the generator sent it, ns
	callNs   int64 // duration of the submit call
	proc     uint8
	dests    uint8 // bitmask of destination group indices
	multi    bool
	refused  bool
	measured bool // submitted in the measured phase, not the warm-up
}

// stamp is one delivery of a process's own submission.
type stamp struct {
	id uint32
	t  int64
}

// collector drains one (process, group) delivery stream for the whole run.
type collector struct {
	proc, gi int
	ch       <-chan dvs.Delivery
	filler   string
	epoch    time.Time

	seq *offHeap[uint32] // every delivered id, in order
	own *offHeap[stamp]  // deliveries of this process's own submissions
	at  *offHeap[int64]  // time of every delivery (process 0 only)

	count   atomic.Int64  // len(seq), readable while the collector runs
	done    *atomic.Int64 // own deliveries over all streams of the run
	wake    chan struct{} // closed loop: signalled on each own delivery
	tracer  *tracer
	bad     int
	badText string
	stopped chan struct{}
}

func (c *collector) loop(stop <-chan struct{}) {
	defer close(c.stopped)
	for {
		select {
		case d := <-c.ch:
			c.take(d)
		case <-stop:
			for {
				select {
				case d := <-c.ch:
					c.take(d)
				default:
					return
				}
			}
		}
	}
}

func (c *collector) take(d dvs.Delivery) {
	now := int64(time.Since(c.epoch))
	id, ok := parsePayload(d.Payload, c.filler)
	if !ok {
		if c.bad == 0 {
			c.badText = fmt.Sprintf("process %d group %d: unexpected payload %.40q", c.proc, c.gi, d.Payload)
		}
		c.bad++
		return
	}
	c.seq.add(id)
	if c.at != nil {
		c.at.add(now)
	}
	if int(d.Origin) == c.proc {
		c.own.add(stamp{id: id, t: now})
		c.done.Add(1)
		if c.wake != nil {
			select {
			case c.wake <- struct{}{}:
			default:
			}
		}
	}
	c.count.Add(1)
	if c.tracer != nil {
		c.tracer.delivery(id, now, int64(time.Since(c.epoch)))
	}
}

// Payloads are the message id in eight hex digits followed by a seed-drawn
// filler that pads the payload to the workload's size. Delivered payloads
// are checked byte for byte against it.
func makeFiller(size int, rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	n := size - 8
	if n < 0 {
		n = 0
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func makePayload(id uint32, filler string) string {
	const hex = "0123456789abcdef"
	b := make([]byte, 8+len(filler))
	for i := 7; i >= 0; i-- {
		b[i] = hex[id&0xf]
		id >>= 4
	}
	copy(b[8:], filler)
	return string(b)
}

func parsePayload(s, filler string) (uint32, bool) {
	if len(s) != 8+len(filler) || s[8:] != filler {
		return 0, false
	}
	v, err := strconv.ParseUint(s[:8], 16, 32)
	if err != nil || v == 0 {
		return 0, false
	}
	return uint32(v), true
}

// run is one measured execution of a workload on one deployment.
type run struct {
	w       workload
	seconds float64
	dep     *deployment
	epoch   time.Time
	filler  string
	rng     *rand.Rand
	keys    []string
	tracer  *tracer

	msgs   *offHeap[msgMeta]
	cols   []*collector // index p*groups + gi
	stop   chan struct{}
	done   atomic.Int64
	wake   chan struct{}
	capN   int
	faults []int64 // fault instants in the measured phase, ns since epoch

	measStart, measEnd int64
	cpuStart, cpuEnd   time.Duration
	memStart, memEnd   runtime.MemStats
	heapBytes          uint64
	backlog            int

	counters              bool     // take layer snapshots (traced phase)
	snapA, snapB, snapEnd snapshot // measured phase start and end; after the drain
	faultEvents           int      // partitions and heals
	unsettled             error    // no full established primary after the drain
}

// capacity bounds the ids one run may submit; a run that reaches it fails.
func capacity(w workload, seconds float64) int {
	total := seconds + float64(w.WarmupMs)/1000 + 1
	if w.Loop == "open" {
		return int(w.Rate*total) + 1024
	}
	return int(400_000*total) + 1024 // far above any closed-loop rate seen on two cores
}

func newRun(w workload, seed int64, seconds float64, dep *deployment, tr *tracer) (*run, error) {
	r := &run{
		w: w, seconds: seconds, dep: dep, tracer: tr,
		rng:  rand.New(rand.NewSource(seed)),
		stop: make(chan struct{}),
		wake: make(chan struct{}, 1),
		capN: capacity(w, seconds),
	}
	r.filler = makeFiller(w.Payload, r.rng)
	for i := 0; i < w.KeySpace; i++ {
		r.keys = append(r.keys, fmt.Sprintf("key-%016x", r.rng.Uint64()))
	}
	var err error
	if r.msgs, err = newOffHeap[msgMeta](r.capN); err != nil {
		return nil, err
	}
	r.epoch = time.Now()
	if tr != nil {
		tr.epoch = r.epoch
	}
	for p := 0; p < w.Procs; p++ {
		for gi := 0; gi < w.Groups; gi++ {
			c := &collector{
				proc: p, gi: gi, ch: dep.ep[p][gi].Deliveries(), filler: r.filler, epoch: r.epoch,
				tracer: tr, done: &r.done, stopped: make(chan struct{}),
			}
			if w.Loop == "closed" {
				c.wake = r.wake
			}
			if c.seq, err = newOffHeap[uint32](r.capN); err != nil {
				r.free()
				return nil, err
			}
			if c.own, err = newOffHeap[stamp](r.capN); err != nil {
				r.free()
				return nil, err
			}
			if p == 0 {
				if c.at, err = newOffHeap[int64](r.capN); err != nil {
					r.free()
					return nil, err
				}
			}
			r.cols = append(r.cols, c)
		}
	}
	return r, nil
}

func (r *run) col(p, gi int) *collector { return r.cols[p*r.w.Groups+gi] }

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

// free releases the off-heap buffers.
func (r *run) free() {
	if r.msgs != nil {
		r.msgs.free()
	}
	for _, c := range r.cols {
		c.seq.free()
		c.own.free()
		c.at.free()
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	return s[0].Value.Uint64()
}

// submit makes the next submission: due is its scheduled time.
func (r *run) submit(due int64, measured bool, k int) {
	if len(r.msgs.items()) == cap(r.msgs.items()) {
		r.msgs.full = true
		return
	}
	id := uint32(len(r.msgs.items()) + 1)
	w := r.w
	m := msgMeta{due: due, measured: measured, proc: uint8(w.Senders[k%len(w.Senders)]), dests: 1}
	payload := makePayload(id, r.filler)
	var key string
	var dests []types.GroupID
	if w.Runtime == "sharded" {
		if r.rng.Float64() < w.Cross {
			a := r.rng.Intn(w.Groups)
			b := (a + 1 + r.rng.Intn(w.Groups-1)) % w.Groups
			gs := r.dep.groupIDs()
			m.multi, m.dests, dests = true, 1<<a|1<<b, []types.GroupID{gs[a], gs[b]}
		} else {
			key = r.keys[r.rng.Intn(len(r.keys))]
			g := r.dep.sharded.Process(int(m.proc)).SubmitKey(key)
			for gi, gid := range r.dep.groupIDs() {
				if gid == g {
					m.dests = 1 << gi
				}
			}
		}
	}
	start := r.now()
	var ok bool
	switch {
	case w.Runtime != "sharded":
		ok = r.dep.broadcast(int(m.proc), payload)
	case m.multi:
		ok = r.dep.sharded.Process(int(m.proc)).SubmitMulti(dests, payload) == nil
	default:
		ok = r.dep.sharded.Process(int(m.proc)).Submit(key, payload)
	}
	end := r.now()
	m.refused, m.late, m.callNs = !ok, start-due, end-start
	if w.Loop == "closed" {
		m.due, m.late = start, 0 // a closed loop times from the actual send
	}
	r.msgs.add(m)
	if r.tracer != nil {
		r.tracer.submitted(id, start, end)
	}
}

// load drives the workload through the warm-up and the measured phase.
func (r *run) load() {
	for _, c := range r.cols {
		go c.loop(r.stop)
	}
	warm := int64(r.w.WarmupMs) * int64(time.Millisecond)
	meas := int64(r.seconds * float64(time.Second))
	start := r.now()
	r.measStart = start + warm
	r.measEnd = r.measStart + meas
	mark := func() {
		if r.counters {
			r.snapA = r.snapshot()
		}
		r.cpuStart = cpuTime()
		runtime.ReadMemStats(&r.memStart)
	}
	if r.w.Loop == "closed" {
		r.closedLoop(r.measStart, false, 0)
		mark()
		r.closedLoop(r.measEnd, true, len(r.msgs.items()))
	} else {
		r.openLoop(start, mark)
	}
	r.cpuEnd = cpuTime()
	runtime.ReadMemStats(&r.memEnd)
	if r.counters {
		r.snapB = r.snapshot()
	}
	r.backlog = r.outstanding()
}

// closedLoop keeps Window broadcasts outstanding until end: a broadcast
// completes when its submitter delivers it.
func (r *run) closedLoop(end int64, measured bool, k int) {
	timeout := time.After(time.Duration(end - r.now()))
	for {
		now := r.now()
		if now >= end || r.msgs.full {
			return
		}
		if int64(len(r.msgs.items()))-r.done.Load() >= int64(r.w.Window) {
			select {
			case <-r.wake:
				continue
			case <-timeout:
				return
			}
		}
		r.submit(now, measured, k)
		k++
	}
}

// openLoop sends on a fixed schedule of Rate messages per second; messages
// due while the generator was busy or asleep go out as soon as it wakes,
// each timed from its due time. Faults (churn workload) are applied by the
// same goroutine, on the schedule faultSchedule draws.
func (r *run) openLoop(start int64, mark func()) {
	interval := float64(time.Second) / r.w.Rate
	marked := false
	var schedule []int64
	if r.w.Churn {
		schedule = r.faultSchedule()
	}
	for k := 0; ; k++ {
		due := start + int64(float64(k)*interval)
		if due >= r.measEnd || r.msgs.full {
			break
		}
		for {
			now := r.now()
			if !marked && now >= r.measStart {
				mark()
				marked = true
			}
			if len(schedule) > 0 && now >= schedule[0] {
				if len(r.faults)%2 == 0 {
					r.dep.partition([]int{3, 4})
				} else {
					r.dep.heal()
				}
				r.faults = append(r.faults, now)
				schedule = schedule[1:]
			}
			if now >= due {
				break
			}
			wait := due - now
			if len(schedule) > 0 && schedule[0]-now < wait {
				wait = schedule[0] - now
			}
			time.Sleep(time.Duration(wait))
		}
		r.submit(due, due >= r.measStart, k)
	}
	for r.now() < r.measEnd {
		time.Sleep(time.Duration(r.measEnd - r.now()))
	}
	if !marked {
		mark()
	}
	if len(r.faults)%2 == 1 { // only if the generator fell far behind
		r.dep.heal()
	}
	r.faultEvents = len(r.faults)
}

// faultSchedule draws the churn workload's fault instants: one partition
// and heal cycle per two and a half seconds of measured phase (at least
// one). Every
// state is held for a seed-drawn time in HoldMs, and the holds are then
// scaled so the partitions fill half the phase and the healed holds the
// other half, starting and ending healed. The run therefore always ends
// settled, with the same share of time partitioned.
func (r *run) faultSchedule() []int64 {
	meas := r.measEnd - r.measStart
	cycles := int(meas / int64(2500*time.Millisecond))
	if cycles < 1 {
		cycles = 1
	}
	draw := func(n int) []float64 {
		hs := make([]float64, n)
		sum := 0.0
		for i := range hs {
			lo, hi := r.w.HoldMs[0], r.w.HoldMs[1]
			hs[i] = float64(lo + r.rng.Intn(hi-lo))
			sum += hs[i]
		}
		for i := range hs {
			hs[i] *= float64(meas) / 2 / sum
		}
		return hs
	}
	healed, parted := draw(cycles+1), draw(cycles)
	var out []int64
	at := float64(r.measStart)
	for i := 0; i < cycles; i++ {
		at += healed[i]
		out = append(out, int64(at))
		at += parted[i]
		out = append(out, int64(at))
	}
	return out
}

// expected returns how many deliveries each group's streams must reach.
func (r *run) expected() []int64 {
	out := make([]int64, r.w.Groups)
	for _, m := range r.msgs.items() {
		if m.refused {
			continue
		}
		for gi := 0; gi < r.w.Groups; gi++ {
			if m.dests&(1<<gi) != 0 {
				out[gi]++
			}
		}
	}
	return out
}

// outstanding counts accepted submissions their submitter has not yet
// delivered, once per destination group.
func (r *run) outstanding() int {
	var want int64
	for _, n := range r.expected() {
		want += n
	}
	return int(want - r.done.Load())
}

// drain waits until every stream has delivered everything addressed to it,
// or the workload's drain time passes.
func (r *run) drain() {
	want := r.expected()
	deadline := time.Now().Add(time.Duration(r.w.DrainMs) * time.Millisecond)
	for time.Now().Before(deadline) {
		all := true
		for _, c := range r.cols {
			if c.count.Load() < want[c.gi] {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// settle measures the live heap and takes the end-of-run counter snapshot,
// which also checks every transport's accounting identity. Call it after
// the drain, before close: the heap is then the system's state with nothing
// in flight.
func (r *run) settle() {
	r.unsettled = r.dep.awaitReady(5 * time.Second)
	r.heapBytes = liveHeap()
	r.snapEnd = r.snapshot()
}

// finish stops the collectors; call after the deployment is closed.
func (r *run) finish() {
	close(r.stop)
	for _, c := range r.cols {
		<-c.stopped
	}
}

// result is everything one phase measured, over all its episodes.
type result struct {
	attempted, failed int
	setups            []float64 // seconds from construction to a full established primary
	checks            []string  // failed checks; empty when the run is correct
	notes             []string
	t                 tally
	m                 map[string]float64
	timings           map[string]timing
}

// tally pools the raw measurements of a phase's episodes.
type tally struct {
	lat, mlat, late, outage []float64 // milliseconds
	latTails, mlatTails     []float64 // p99 of each interval, milliseconds
	delivered               int       // at process 0, in the measured phases
	deliveredAll            int       // at process 0, over whole episodes
	span                    float64   // measured seconds
	cpu                     time.Duration
	heaps                   []float64 // live heap after each episode's drain, bytes
	mallocs, allocBytes     uint64
	gcs                     uint32
	keyed                   []float64 // keyed deliveries per group
	calls                   []float64 // SubmitMulti call times, microseconds
	traceBytes              int64     // size of the recorded trace streams
}

func (res *result) fail(format string, args ...any) {
	res.checks = append(res.checks, fmt.Sprintf(format, args...))
}

// analyse checks one episode's outputs and adds its measurements to the
// phase's tally.
func (r *run) analyse(res *result) {
	msgs := r.msgs.items()
	res.attempted += len(msgs)
	if r.msgs.full {
		res.fail("the run reached its capacity of %d submissions", r.capN)
	}
	for _, c := range r.cols {
		if c.bad > 0 {
			res.fail("%d malformed deliveries, first: %s", c.bad, c.badText)
		}
		if c.seq.full || c.own.full || (c.at != nil && c.at.full) {
			res.fail("delivery log of process %d group %d overflowed", c.proc, c.gi)
		}
	}
	if r.unsettled != nil {
		// Every message was delivered (the drain checks that), but the
		// deployment lost its full primary: the membership thrash the
		// README describes. It is reported, not failed.
		res.notes = append(res.notes, fmt.Sprintf("after the drain: %v", r.unsettled))
	}
	if r.snapEnd.netErr != nil {
		res.fail("transport accounting: %v", r.snapEnd.netErr)
	}
	e := r.snapEnd
	res.notes = append(res.notes, fmt.Sprintf("episode end: %d stacks installed %d views, %d state exchanges, %d retransmits; net sent %d dropped %d",
		e.stacks, e.vs.ViewsInstalled, e.tob.StateExchanges, e.vs.Retransmits, e.net.Sent, e.net.Dropped))

	// Delivery order and exactly-once, per group.
	for gi := 0; gi < r.w.Groups; gi++ {
		seqs := make([][]uint32, r.w.Procs)
		for p := range seqs {
			seqs[p] = r.col(p, gi).seq.items()
		}
		if err := checkOrder(seqs, func(id uint32) dvs.ProcID { return dvs.ProcID(msgs[id-1].proc) }, len(msgs)); err != nil {
			res.fail("group %d: %v", gi, err)
		}
		seen := make([]bool, len(msgs)+1)
		for p, seq := range seqs {
			for k := range seen {
				seen[k] = false
			}
			for _, id := range seq {
				switch {
				case int(id) > len(msgs) || msgs[id-1].dests&(1<<gi) == 0 || msgs[id-1].refused:
					res.fail("process %d group %d delivered id %d, which was never submitted to it", p, gi, id)
				case seen[id]:
					res.fail("process %d group %d delivered id %d twice", p, gi, id)
				}
				if int(id) <= len(msgs) {
					seen[id] = true
				}
			}
		}
		for p := 1; p < len(seqs); p++ {
			if len(seqs[p]) != len(seqs[0]) {
				res.fail("group %d: process %d delivered %d messages, process 0 delivered %d", gi, p, len(seqs[p]), len(seqs[0]))
			}
		}
	}

	// Latency: from the due time to the submitter's delivery; a multicast
	// completes when the submitter has delivered it in every destination.
	doneAt := make([]int64, len(msgs))
	groupsLeft := make([]uint8, len(msgs))
	for i, m := range msgs {
		groupsLeft[i] = m.dests
	}
	for _, c := range r.cols {
		for _, s := range c.own.items() {
			i := s.id - 1
			if int(i) >= len(msgs) || int(msgs[i].proc) != c.proc {
				continue
			}
			groupsLeft[i] &^= 1 << c.gi
			if s.t > doneAt[i] {
				doneAt[i] = s.t
			}
		}
	}
	t := &res.t
	if t.keyed == nil {
		t.keyed = make([]float64, r.w.Groups)
	}
	var latDue, mlatDue []int64
	var latOnly, mlatOnly []float64
	for i, m := range msgs {
		if m.refused || groupsLeft[i] != 0 {
			res.failed++
			continue
		}
		if !m.measured {
			continue
		}
		ms := float64(doneAt[i]-m.due) / 1e6
		if m.multi {
			t.mlat = append(t.mlat, ms)
			mlatDue, mlatOnly = append(mlatDue, m.due), append(mlatOnly, ms)
			t.calls = append(t.calls, float64(m.callNs)/1e3)
		} else {
			t.lat = append(t.lat, ms)
			latDue, latOnly = append(latDue, m.due), append(latOnly, ms)
			for gi := range t.keyed {
				if m.dests&(1<<gi) != 0 {
					t.keyed[gi]++
				}
			}
		}
		t.late = append(t.late, float64(m.late)/1e6)
	}
	if r.w.Loop == "open" {
		limit := int(r.w.Rate / 2)
		if limit < 100 {
			limit = 100
		}
		if r.backlog > limit {
			res.fail("backlog grew: %d submissions undelivered at their submitter when the load stopped (limit %d, half a second of load)", r.backlog, limit)
		}
	}

	// Process 0's deliveries in the measured phase, over all its groups.
	var at0 []int64
	for gi := 0; gi < r.w.Groups; gi++ {
		at0 = append(at0, r.col(0, gi).at.items()...)
	}
	sort.Slice(at0, func(i, j int) bool { return at0[i] < at0[j] })
	lo := sort.Search(len(at0), func(i int) bool { return at0[i] >= r.measStart })
	hi := sort.Search(len(at0), func(i int) bool { return at0[i] >= r.measEnd })
	if hi == lo {
		res.fail("process 0 delivered nothing in the measured phase")
	}
	var perSec []string
	for at, k := r.measStart, lo; at < r.measEnd; at += int64(time.Second) {
		n := 0
		for ; k < hi && at0[k] < at+int64(time.Second); k++ {
			n++
		}
		perSec = append(perSec, strconv.Itoa(n))
	}
	res.notes = append(res.notes, "deliveries at process 0 per second: "+strings.Join(perSec, " "))

	t.delivered += hi - lo
	t.deliveredAll += len(at0)
	t.span += float64(r.measEnd-r.measStart) / 1e9
	t.cpu += r.cpuEnd - r.cpuStart
	t.heaps = append(t.heaps, float64(r.heapBytes))
	t.mallocs += r.memEnd.Mallocs - r.memStart.Mallocs
	t.allocBytes += r.memEnd.TotalAlloc - r.memStart.TotalAlloc
	t.gcs += r.memEnd.NumGC - r.memStart.NumGC
	bounds := r.intervals()
	outages := r.outages(at0, bounds)
	if r.w.Churn {
		// A partition is the fault; the heal that ends it is the repair,
		// whose merge costs process 0 a shorter gap. The outage metric
		// takes the partitions; the note shows both.
		var b strings.Builder
		for i, o := range outages {
			if i%2 == 0 {
				t.outage = append(t.outage, o)
				fmt.Fprintf(&b, " P%.0f", o)
			} else {
				fmt.Fprintf(&b, " H%.0f", o)
			}
		}
		res.notes = append(res.notes, "longest gap at process 0 after each partition (P) and heal (H), ms:"+b.String())
	} else {
		t.outage = append(t.outage, outages...)
	}
	t.latTails = append(t.latTails, intervalTails(bounds, latDue, latOnly)...)
	t.mlatTails = append(t.mlatTails, intervalTails(bounds, mlatDue, mlatOnly)...)
}

// finalize turns a phase's tally into its metrics.
func (res *result) finalize(w workload) {
	t := &res.t
	delivered := float64(t.delivered)
	if delivered == 0 {
		delivered = 1
	}
	res.timings["lat_ms"] = summarize(t.lat)
	if w.Runtime == "sharded" {
		res.timings["mcast_lat_ms"] = summarize(t.mlat)
	} else {
		// With one group every broadcast is a multicast to that group.
		res.timings["mcast_lat_ms"] = res.timings["lat_ms"]
	}
	res.timings["outage_ms"] = summarize(t.outage)

	res.timings["lat_p99_per_interval_ms"] = summarize(t.latTails)
	mtails := t.mlatTails
	if w.Runtime != "sharded" {
		mtails = t.latTails
	}
	res.timings["mcast_lat_p99_per_interval_ms"] = summarize(mtails)
	res.m["tput_msgs"] = float64(t.delivered) / t.span
	res.m["cpu_us_per_msg"] = float64(t.cpu) / 1e3 / delivered
	res.m["lat_p50_ms"] = res.timings["lat_ms"].p50
	res.m["lat_p99_ms"] = res.timings["lat_p99_per_interval_ms"].p50
	res.m["mcast_lat_p50_ms"] = res.timings["mcast_lat_ms"].p50
	res.m["mcast_lat_p99_ms"] = res.timings["mcast_lat_p99_per_interval_ms"].p50
	res.m["outage_p50_ms"] = res.timings["outage_ms"].p50
	res.m["heap_mb"] = median(t.heaps) / (1 << 20)
	res.m["delivered"] = float64(t.delivered)
	res.m["delivered_all"] = float64(t.deliveredAll)

	res.m["go.allocs_per_msg"] = float64(t.mallocs) / delivered
	res.m["go.alloc_kb_per_msg"] = float64(t.allocBytes) / 1024 / delivered
	res.m["go.gc_per_kmsg"] = float64(t.gcs) * 1000 / delivered
	res.m["bench.gen_late_ms_p99"] = 0
	if w.Loop == "open" {
		res.timings["gen_late_ms"] = summarize(t.late)
		res.m["bench.gen_late_ms_p99"] = res.timings["gen_late_ms"].p99
	}
	res.m["shard.skew"] = 0
	if w.Groups > 1 {
		max, sum := 0.0, 0.0
		for _, k := range t.keyed {
			sum += k
			if k > max {
				max = k
			}
		}
		res.m["shard.skew"] = ratio(max, sum/float64(len(t.keyed)))
	}
	res.m["mcast.submit_us"] = mean(t.calls)
	if t.traceBytes > 0 {
		res.m["conform.trace_bytes_per_msg"] = ratio(float64(t.traceBytes), float64(t.deliveredAll))
	}
}

// intervals splits the measured phase for the outage and tail metrics: on
// the churn workload each interval runs from one fault to the next (the
// last to the end of the phase); elsewhere they are fixed windows of
// length window. It returns each interval's start; the last ends at measEnd.
func (r *run) intervals() []int64 {
	if r.w.Churn {
		return append([]int64(nil), r.faults...)
	}
	var bounds []int64
	step := int64(window)
	for t := r.measStart; t+step <= r.measEnd; t += step {
		bounds = append(bounds, t)
	}
	return bounds
}

// outages returns, for each interval, the longest gap between consecutive
// deliveries at process 0. The delivery just before an interval opens it,
// so a gap that straddles the fault counts.
func (r *run) outages(at0, bounds []int64) []float64 {
	var out []float64
	for i, b := range bounds {
		end := r.measEnd
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		k := sort.Search(len(at0), func(j int) bool { return at0[j] >= b })
		prev := b
		if k > 0 {
			prev = at0[k-1]
		}
		gap := int64(0)
		for ; k < len(at0) && at0[k] < end; k++ {
			if d := at0[k] - prev; d > gap {
				gap = d
			}
			prev = at0[k]
		}
		if d := end - prev; d > gap {
			gap = d
		}
		out = append(out, float64(gap)/1e6)
	}
	return out
}

// minTailSamples is the fewest latencies an interval needs for its p99 to
// count; the last percent of it is then at least one sample.
const minTailSamples = 100

// intervalTails returns the p99 of each interval's latencies, grouping
// messages by due time. Consecutive intervals are pooled until they hold
// minTailSamples latencies; a short remainder is dropped, unless it is all
// there is (a very short run).
func intervalTails(bounds []int64, due []int64, lat []float64) []float64 {
	per := make([][]float64, len(bounds))
	for i, d := range due {
		k := sort.Search(len(bounds), func(j int) bool { return bounds[j] > d }) - 1
		if k >= 0 {
			per[k] = append(per[k], lat[i])
		}
	}
	var out, pool []float64
	for _, v := range per {
		pool = append(pool, v...)
		if len(pool) >= minTailSamples {
			sort.Float64s(pool)
			out = append(out, percentile(pool, 99))
			pool = pool[:0]
		}
	}
	if len(out) == 0 && len(pool) > 0 {
		sort.Float64s(pool)
		out = append(out, percentile(pool, 99))
	}
	return out
}

// checkOrder verifies that the processes of one group delivered one
// prefix-consistent order, with sim.CheckDeliverySequences. The logs hold
// ids, so each window of them is rendered back into deliveries (payload =
// id, origin = submitter) before the check.
func checkOrder(seqs [][]uint32, origin func(uint32) dvs.ProcID, n int) error {
	const window = 1 << 15
	longest := 0
	for _, s := range seqs {
		if len(s) > longest {
			longest = len(s)
		}
	}
	for lo := 0; lo < longest; lo += window {
		win := make([][]dvs.Delivery, len(seqs))
		for p, s := range seqs {
			for k := lo; k < len(s) && k < lo+window; k++ {
				id := s[k]
				var o dvs.ProcID
				if int(id) >= 1 && int(id) <= n {
					o = origin(id)
				}
				win[p] = append(win[p], dvs.Delivery{Payload: strconv.FormatUint(uint64(id), 10), Origin: o})
			}
		}
		if err := sim.CheckDeliverySequences(win); err != nil {
			return fmt.Errorf("delivery order from position %d: %w", lo, err)
		}
	}
	return nil
}

// checkMcast verifies the multicast histories McastDelivered reports: every
// process agrees per group, and the cross-group partial order holds.
func checkMcast(d *deployment) error {
	var seqs []mcastcore.DeliverySeq
	for p := 0; p < d.w.Procs; p++ {
		sp := d.sharded.Process(p)
		for _, g := range d.sharded.Groups() {
			seqs = append(seqs, mcastcore.DeliverySeq{P: sp.ID(), G: g, Deliveries: sp.McastDelivered(g)})
		}
	}
	var errs []error
	for _, f := range []func([]mcastcore.DeliverySeq) error{
		mcastcore.CheckNoDuplicates, mcastcore.CheckPerGroupAgreement, mcastcore.CheckCrossGroupOrder,
	} {
		if err := f(seqs); err != nil {
			errs = append(errs, err)
		}
	}
	// Agreement above is prefix agreement; after the drain every process
	// must hold the whole history.
	for i := range seqs {
		for j := range seqs {
			if seqs[i].G == seqs[j].G && len(seqs[i].Deliveries) != len(seqs[j].Deliveries) {
				errs = append(errs, fmt.Errorf("group %s: process %s holds %d multicasts, process %s holds %d",
					seqs[i].G, seqs[i].P, len(seqs[i].Deliveries), seqs[j].P, len(seqs[j].Deliveries)))
			}
		}
	}
	return errors.Join(errs...)
}
