// Command perfbench is the repository's end-to-end benchmark. It drives one
// workload through the public runtime API (NewCluster, StartNode,
// NewShardedCluster; Broadcast, Submit, SubmitMulti; the Deliveries
// channels; Partition and Heal), checks every delivery, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload to-mem-sat --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare before.jsonl after.jsonl
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the workload three times (untraced, traced, and recorded for the core
// re-steps) and reports the per-layer metrics. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	dvs "repro"
	netfab "repro/internal/net"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", "", "append the full result record (JSON line) to this file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec, err := execute(w, *seed, *seconds, *trace == 1, root, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	full, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("RECORD %s\n", full)
	if *out != "" {
		if err := appendLine(*out, full); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	last, err := json.Marshal(rec.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// machine identifies where a result was measured; compare refuses to
// compare results whose machine blocks differ.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

// record is the full result of one run.
type record struct {
	Workload  workload         `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Commit    string           `json:"git_commit"`
	Source    string           `json:"source_sha256"`
	Machine   machine          `json:"machine"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailedFr  float64          `json:"failed_frac"`
	Checks    []string         `json:"failed_checks,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// summary is the contract's last line: exactly these four keys.
func (r *record) summary() any {
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

func newResult() *result {
	return &result{m: map[string]float64{}, timings: map[string]timing{}}
}

type phaseKind int

const (
	plainPhase    phaseKind = iota // what --trace 0 measures
	tracedPhase                    // spans, CPU profile, loop sampler, counters
	recordedPhase                  // Config.Record on, for the core re-steps
)

var phaseNames = []string{"untraced", "traced", "recorded"}

// execute runs the workload and assembles its record, printing a readable
// report to out as it goes.
func execute(w workload, seed int64, seconds float64, traced bool, root string, out io.Writer) (*record, error) {
	build := filepath.Join(root, ".bench_build")
	scratch := filepath.Join(build, "work", fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid()))
	defer os.RemoveAll(scratch)

	rec := &record{
		Workload: w, Seed: seed, Seconds: seconds, Trace: traced,
		Commit: gitCommit(root), Source: sourceDigest(root), Machine: thisMachine(),
		Metrics: map[string]value{},
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", w.Name, seed, seconds, traced)
	fmt.Fprintf(out, "machine nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s source=%s\n",
		rec.Machine.NProc, rec.Machine.GOMAXPROCS, rec.Machine.CPUModel, rec.Machine.GoVersion, rec.Commit, rec.Source[:12])

	var results []*result
	runPhase := func(kind phaseKind, nSetups int, secs float64, pw workload) (*result, error) {
		res, err := phase(pw, seed, secs, scratch, build, kind, nSetups)
		if err != nil {
			return nil, fmt.Errorf("%s phase: %w", phaseNames[kind], err)
		}
		results = append(results, res)
		report(out, phaseNames[kind], res)
		return res, nil
	}

	var primary *result // the phase whose metrics the run reports
	if !traced {
		res, err := runPhase(plainPhase, setups, seconds, w)
		if err != nil {
			return nil, err
		}
		res.m["setup_s"] = median(res.setups)
		fmt.Fprintf(out, "setup_s median of %d: %.6f (all: %v)\n", len(res.setups), res.m["setup_s"], res.setups)
		primary = res
	} else {
		base, err := runPhase(plainPhase, 1, seconds, w)
		if err != nil {
			return nil, err
		}
		primary, err = runPhase(tracedPhase, 1, seconds, w)
		if err != nil {
			return nil, err
		}
		primary.m["bench.trace_overhead"] = ratio(primary.m["cpu_us_per_msg"], base.m["cpu_us_per_msg"])
		rw := w
		rw.WarmupMs = 0
		secs := seconds
		if w.RecordMs > 0 && float64(w.RecordMs)/1000 < secs {
			secs = float64(w.RecordMs) / 1000
		}
		recd, err := runPhase(recordedPhase, 1, secs, rw)
		if err != nil {
			return nil, err
		}
		for _, k := range restepMetrics {
			primary.m[k] = recd.m[k]
		}
	}

	for _, res := range results {
		rec.Attempted += res.attempted
		rec.Failed += res.failed
		rec.Checks = append(rec.Checks, res.checks...)
	}
	rec.FailedFr = ratio(float64(rec.Failed), float64(rec.Attempted))
	fmt.Fprintf(out, "failed_frac %.6g (%d of %d submissions refused or undelivered at their submitter)\n", rec.FailedFr, rec.Failed, rec.Attempted)
	for _, d := range metricDefs {
		if d.endToEnd == traced {
			continue
		}
		v, ok := primary.m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rec.Checks = append(rec.Checks, fmt.Sprintf("metric %s was not measured", d.name))
			v = 0
		}
		rec.Metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "metric %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(out, "peak resident memory %s\n", peakRSS())
	rec.Correct = len(rec.Checks) == 0
	for _, c := range rec.Checks {
		fmt.Fprintln(out, "CHECK FAILED:", c)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	if rec.Attempted == 0 {
		return nil, fmt.Errorf("no submissions were attempted")
	}
	return rec, nil
}

func report(out io.Writer, name string, res *result) {
	keys := make([]string, 0, len(res.timings))
	for k := range res.timings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "%s timing %-13s %s\n", name, k, res.timings[k])
	}
	for _, n := range res.notes {
		fmt.Fprintf(out, "%s note %s\n", name, n)
	}
}

// phase measures the workload one way (kind). An untraced phase splits the
// measured time into equal episodes of at most EpisodeMs, each on a fresh
// deployment; traced and recorded phases run one episode. The first episode
// is preceded by nSetups-1 extra set-ups; those set-ups are the setup_s
// samples.
func phase(w workload, seed int64, seconds float64, scratch, build string, kind phaseKind, nSetups int) (*result, error) {
	res := newResult()
	var tr *tracer
	if kind != plainPhase {
		var err error
		if tr, err = newTracer(capacity(w, seconds)); err != nil {
			return nil, err
		}
		defer tr.free()
	}
	episodes, epSecs := 1, seconds
	if ep := float64(w.EpisodeMs) / 1000; ep > 0 && seconds > ep {
		if kind == plainPhase {
			episodes = int(math.Ceil(seconds / ep))
			epSecs = seconds / float64(episodes)
		} else {
			epSecs = ep
		}
	}
	opts := buildOpts{record: kind == recordedPhase, scratch: scratch}
	if kind == tracedPhase && w.Runtime == "tcp" {
		opts.wrap = func(t netfab.Transport) netfab.Transport { return timedTransport{Transport: t, t: tr} }
	}
	var last *run
	for e := 0; e < episodes; e++ {
		n := 1
		if e == 0 {
			n = nSetups
		}
		sample := newResult() // only the up-front set-ups are timed
		dep, err := setUp(w, seed, opts, fmt.Sprintf("%s-%d", phaseNames[kind], e), n, sample)
		if e == 0 {
			res.setups = sample.setups
		}
		if err != nil {
			return nil, err
		}
		if last, err = episode(w, seed+int64(e)<<32, epSecs, dep, kind, tr, build, res); err != nil {
			return nil, err
		}
	}
	res.finalize(w)
	if kind == tracedPhase {
		last.layerMetrics(res.m, last.snapA, last.snapB, last.snapEnd)
		res.m["net.send_ns"] = ratio(float64(tr.sendNanos.Load()), float64(tr.sends.Load()))
	}
	return res, nil
}

// setUp deploys the workload n times, timing each from construction until
// every process reports a full established primary; all but the last are
// closed again. Each set-up starts after a forced collection, so it is not
// charged for the garbage of whatever ran before it.
func setUp(w workload, seed int64, opts buildOpts, tag string, n int, res *result) (*deployment, error) {
	for i := 0; ; i++ {
		opts.streamTag = fmt.Sprintf("%s-%d", tag, i)
		runtime.GC()
		start := time.Now()
		d, err := deploy(w, seed, opts)
		if err != nil {
			return nil, fmt.Errorf("deploying: %w", err)
		}
		if err := d.awaitReady(30 * time.Second); err != nil {
			d.close()
			return nil, err
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
		if i == n-1 {
			return d, nil
		}
		if err := d.close(); err != nil {
			return nil, err
		}
		if d.streamDir != "" {
			if err := os.RemoveAll(d.streamDir); err != nil {
				return nil, err
			}
		}
	}
}

// episode runs the load on one deployment, drains, checks, closes it and
// adds its measurements to res.
func episode(w workload, seed int64, seconds float64, dep *deployment, kind phaseKind, tr *tracer, build string, res *result) (*run, error) {
	var spans *tracer // submit and delivery spans: traced phase only
	if kind == tracedPhase {
		spans = tr
	}
	r, err := newRun(w, seed, seconds, dep, spans)
	if err != nil {
		dep.close()
		return nil, err
	}
	defer r.free()
	r.counters = kind == tracedPhase
	if kind == tracedPhase {
		for _, d := range metricDefs {
			if !d.endToEnd {
				res.m[d.name] = 0 // overwritten by every layer the workload runs
			}
		}
	}

	var sampler *loopSampler
	var prof *os.File
	profPath := filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.cpu.pprof", w.Name, seed))
	if kind == tracedPhase {
		if err := os.MkdirAll(filepath.Dir(profPath), 0o755); err != nil {
			dep.close()
			return nil, err
		}
		if prof, err = os.Create(profPath); err != nil {
			dep.close()
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			dep.close()
			return nil, err
		}
		var hs []*dvs.Process
		for _, row := range dep.ep {
			hs = append(hs, row...)
		}
		sampler = startSampler(hs, 5*time.Millisecond)
	}
	r.load()
	if kind == tracedPhase {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			res.fail("writing the CPU profile: %v", err)
		}
		wait := summarize(sampler.finish())
		res.timings["loop_wait_us"] = wait
		res.m["vsg.loop_wait_us_p50"], res.m["vsg.loop_wait_us_p99"] = wait.p50, wait.p99
	}
	r.drain()
	r.settle()
	if w.Runtime == "sharded" {
		if err := checkMcast(dep); err != nil {
			res.fail("multicast histories: %v", err)
		}
	}
	closeErr := dep.close()
	r.finish()
	if closeErr != nil {
		res.fail("closing the deployment: %v", closeErr)
	}
	if dep.streamDir != "" {
		verifyStream(dep, res)
	}
	r.analyse(res)
	if kind == tracedPhase {
		shares, err := cpuShares(profPath)
		if err != nil {
			res.fail("CPU profile split: %v", err)
		}
		for k, v := range shares {
			res.m[k+".cpu_share"] = v
		}
		path := filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.spans.csv", w.Name, seed))
		if err := tr.write(path); err != nil {
			res.fail("writing spans: %v", err)
		}
		res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s; CPU profile in %s", len(tr.spans.items()), path, profPath))
	}
	if kind == recordedPhase {
		restep(dep, tr, res)
	}
	return r, nil
}

// verifyStream replays the run's trace stream; the verdict must be sealed
// and clean. The replay runs after the clock stopped.
func verifyStream(dep *deployment, res *result) {
	defer os.RemoveAll(dep.streamDir)
	bytes, err := dep.traceBytes()
	if err != nil {
		res.fail("sizing the trace stream: %v", err)
	}
	start := time.Now()
	rep, err := dvs.ReplayTraceStream(dep.streamDir)
	elapsed := time.Since(start)
	if err != nil {
		res.fail("replaying the trace stream: %v", err)
		return
	}
	if !rep.OK() || !rep.Sealed || rep.Truncated != "" || rep.Partial {
		res.fail("trace stream verdict: %s", rep)
	}
	res.notes = append(res.notes, "stream replay: "+rep.String())
	res.m["conform.replay_steps_per_s"] = float64(rep.DVSSteps+rep.TOSteps) / elapsed.Seconds()
	res.t.traceBytes += bytes
}

// restepMetrics are the per-layer metrics the recorded phase measures.
var restepMetrics = []string{
	"dvscore.steps_per_msg", "dvscore.step_ns", "dvscore.step_ns_p99", "dvscore.allocs_per_step",
	"tocore.steps_per_msg", "tocore.step_ns", "tocore.step_ns_p99", "tocore.allocs_per_step",
	"tocore.summary_labels", "mcastcore.step_ns",
}

// restep harvests the recorded core logs and re-steps them.
func restep(dep *deployment, tr *tracer, res *result) {
	var logs []dvs.TraceLog
	var mlogs []dvs.McastTraceLog
	switch {
	case dep.mem != nil:
		logs = dep.mem.TraceLogs()
	case dep.sharded != nil:
		for _, g := range dep.sharded.Groups() {
			logs = append(logs, dep.sharded.TraceLogs(g)...)
		}
		mlogs = dep.sharded.McastLogs()
	default:
		for _, n := range dep.nodes {
			if lg, ok := n.TraceLog(); ok {
				logs = append(logs, lg)
			}
		}
	}
	if len(logs) == 0 {
		res.fail("the recorded run produced no core logs")
		return
	}
	var rr restepResult
	restepLogs(tr, logs, mlogs, &rr)
	for _, d := range rr.divergences {
		res.fail("core re-step divergence: %s", d)
	}
	delivered := float64(res.t.deliveredAll)
	res.m["dvscore.steps_per_msg"] = ratio(float64(len(rr.dvsNs)), delivered)
	res.m["dvscore.step_ns"] = mean(rr.dvsNs)
	res.m["dvscore.step_ns_p99"] = p99(rr.dvsNs)
	res.m["dvscore.allocs_per_step"] = ratio(float64(rr.dvsAllocs), float64(len(rr.dvsNs)))
	res.m["tocore.steps_per_msg"] = ratio(float64(len(rr.toNs)), delivered)
	res.m["tocore.step_ns"] = mean(rr.toNs)
	res.m["tocore.step_ns_p99"] = p99(rr.toNs)
	res.m["tocore.allocs_per_step"] = ratio(float64(rr.toAllocs), float64(len(rr.toNs)))
	res.m["tocore.summary_labels"] = ratio(float64(rr.summaryLabels), float64(rr.summaries))
	res.m["mcastcore.step_ns"] = mean(rr.mcNs)
	res.notes = append(res.notes, fmt.Sprintf("re-stepped %d dvscore, %d tocore, %d mcastcore steps of %d logs: %d divergences",
		len(rr.dvsNs), len(rr.toNs), len(rr.mcNs), len(logs)+len(mlogs), len(rr.divergences)))
}

// peakRSS reports the process's peak resident set (VmHWM).
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func thisMachine() machine {
	m := machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// gitCommit names the checked-out commit, or "none" when the tree is not a
// git work tree of its own (the lookup never climbs above root).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	b, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes every Go source and module file of the tree, so
// results can be tied to the code that produced them without git.
func sourceDigest(root string) string {
	h := sha256.New()
	// The walk function never fails: an unreadable entry is left out of the
	// digest, which only identifies the sources.
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
