package conform

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// driveScript runs a singleton node's two cores through rounds of the same
// scripted broadcast cycle recordedRun uses, feeding every macro-step to the
// given observers (the signatures Recorder, StreamNode, and OnlineChecker
// all share). cut, if non-nil, is called between cycles — each cycle ends
// with the interface quiescent, so it is a safe place for a quiescent cut.
func driveScript(t *testing.T, rounds int,
	obsDVS func(dvscore.Event, []dvscore.Effect),
	obsTO func(tocore.Event, []tocore.Effect),
	cut func(round int)) {
	t.Helper()
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(1))
	dn := dvscore.NewNode(p, initial, true)
	tn := tocore.NewNode(p, initial, true, false)

	stepDVS := func(ev dvscore.Event) []dvscore.Effect {
		var out dvscore.Outbox
		dvscore.Step(dn, ev, true, &out)
		obsDVS(ev, out.Effects)
		return out.Effects
	}
	stepTO := func(ev tocore.Event) []tocore.Effect {
		var out tocore.Outbox
		if err := tocore.Step(tn, ev, true, &out); err != nil {
			t.Fatalf("to step: %v", err)
		}
		obsTO(ev, out.Effects)
		return out.Effects
	}

	for round := 0; round < rounds; round++ {
		for _, fx := range stepTO(tocore.EvBroadcast{A: "a" + strconv.Itoa(round)}) {
			if send, ok := fx.(tocore.FxSend); ok {
				for _, dfx := range stepDVS(dvscore.EvClientSend{M: send.M}) {
					if sv, ok := dfx.(dvscore.FxSendVS); ok {
						for _, up := range stepDVS(dvscore.EvVSRecv{M: sv.M, From: p}) {
							if d, ok := up.(dvscore.FxDeliver); ok {
								stepTO(tocore.EvRecv{M: d.M, From: d.From})
							}
						}
						for _, up := range stepDVS(dvscore.EvVSSafe{M: sv.M, From: p}) {
							if s, ok := up.(dvscore.FxSafeInd); ok {
								stepTO(tocore.EvSafe{M: s.M, From: s.From})
							}
						}
					}
				}
			}
		}
		if cut != nil {
			cut(round)
		}
	}
}

// recordStreamed drives the scripted run into both a fresh in-memory
// recorder and a chunked stream in dir, returning the in-memory log for
// verdict comparison and the recorder for its window high-water mark.
func recordStreamed(t *testing.T, dir string, opts StreamOptions, rounds int, cut func(r *StreamRecorder, round int)) (NodeLog, *StreamRecorder) {
	t.Helper()
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(1))
	sr, err := NewStreamRecorder(dir, opts)
	if err != nil {
		t.Fatalf("new stream recorder: %v", err)
	}
	sn, err := sr.Node(p, 0, initial, true, true, true, false)
	if err != nil {
		t.Fatalf("register stream node: %v", err)
	}
	rec := NewRecorder(p, 0, initial, true, true, true, false)
	driveScript(t, rounds,
		func(ev dvscore.Event, fx []dvscore.Effect) {
			rec.ObserveDVS(ev, fx)
			sn.ObserveDVS(ev, fx)
		},
		func(ev tocore.Event, fx []tocore.Effect) {
			rec.ObserveTO(ev, fx)
			sn.ObserveTO(ev, fx)
		},
		func(round int) {
			if cut != nil {
				cut(sr, round)
			}
		})
	return rec.Log(), sr
}

func TestStreamReplayMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	log, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 6, nil)
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}

	mem := Replay([]NodeLog{log})
	if err := mem.Err(); err != nil {
		t.Fatalf("in-memory replay: %v", err)
	}
	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatalf("stream replay: %v", err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("stream replay verdict: %v (%s)", err, rep)
	}
	if !rep.Sealed {
		t.Errorf("closed stream not sealed: %s", rep)
	}
	if rep.Truncated != "" {
		t.Errorf("closed stream reports truncation: %s", rep.Truncated)
	}
	if rep.Chunks < 2 {
		t.Errorf("window 4 over %d steps produced %d chunks, expected several", mem.DVSSteps+mem.TOSteps, rep.Chunks)
	}
	// Same steps replayed, same verdict: the streamed checker is the
	// in-memory checker over a different carrier.
	if rep.DVSSteps != mem.DVSSteps || rep.TOSteps != mem.TOSteps {
		t.Errorf("streamed replay covered dvs=%d/to=%d steps, in-memory dvs=%d/to=%d",
			rep.DVSSteps, rep.TOSteps, mem.DVSSteps, mem.TOSteps)
	}
	if rep.OK() != mem.OK() {
		t.Errorf("verdicts differ: streamed %v, in-memory %v", rep.OK(), mem.OK())
	}
}

func TestStreamRecorderMemoryBounded(t *testing.T) {
	dir := t.TempDir()
	const window = 8
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: window}, 40, nil)
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}
	// The recorder's buffered-record high-water mark must be bounded by the
	// window no matter how long the run was: that is the O(window) claim.
	if peak := sr.PeakWindowSteps(); peak > window {
		t.Errorf("peak buffered steps %d exceeds window %d", peak, window)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	chunks := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "chunk-") {
			chunks++
		}
	}
	if chunks < 5 {
		t.Errorf("long run spilled only %d chunks", chunks)
	}
}

func TestStreamReplayQuiescentCuts(t *testing.T) {
	dir := t.TempDir()
	// A huge step window, so the only boundaries are the explicit quiescent
	// cuts between scripted cycles plus the sealing cut from Close.
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 1 << 20}, 4,
		func(r *StreamRecorder, round int) {
			if round == 1 {
				r.Cut(true)
			}
		})
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}
	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatalf("stream replay: %v", err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("replay with mid-run quiescent cut: %v", err)
	}
	if rep.QuiescentCuts < 2 {
		t.Errorf("expected the explicit cut plus the sealing cut, got %d quiescent cuts (%s)", rep.QuiescentCuts, rep)
	}
	if rep.Checks == 0 {
		t.Error("no cross-node invariant checks ran at the quiescent cuts")
	}
	if rep.Partial {
		t.Errorf("singleton stream reported partial coverage: %s", rep)
	}
}

func TestStreamReplayLocalizesDivergenceToChunk(t *testing.T) {
	dir := t.TempDir()
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 8, nil)
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}

	// Inject a divergence mid-run: rewrite one chunk past the first with the
	// recorded effects of one TO step dropped. The replayer re-derives the
	// effects, so it must flag the mismatch — and pin it to this window.
	tamperedSeq := 0
tamper:
	for seq := 2; ; seq++ {
		var ch streamChunk
		if err := readSegment(filepath.Join(dir, chunkSeg(seq)), &ch); err != nil {
			break
		}
		for pi := range ch.Parts {
			for ri := range ch.Parts[pi].TO {
				if len(ch.Parts[pi].TO[ri].Fx) > 0 {
					ch.Parts[pi].TO[ri].Fx = nil
					if err := writeSegment(filepath.Join(dir, chunkSeg(seq)), ch); err != nil {
						t.Fatalf("rewrite chunk: %v", err)
					}
					tamperedSeq = seq
					break tamper
				}
			}
		}
	}
	if tamperedSeq == 0 {
		t.Fatal("found no TO record with effects past chunk 1 to tamper")
	}

	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatalf("stream replay: %v", err)
	}
	if rep.OK() {
		t.Fatalf("replay accepted a tampered chunk: %s", rep)
	}
	if len(rep.Divergences) == 0 {
		t.Fatal("expected a divergence")
	}
	if got := rep.Divergences[0].Window; got != tamperedSeq {
		t.Errorf("first divergence attributed to window %d, tampered chunk %d (%s)",
			got, tamperedSeq, rep.Divergences[0])
	}
}

func TestStreamReplayRecoversSealedPrefixOfTruncatedTrace(t *testing.T) {
	dir := t.TempDir()
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 8, nil)
	if err := sr.Close(); err != nil {
		t.Fatalf("close stream: %v", err)
	}
	sealed, err := ReplayStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sealed.Chunks < 3 {
		t.Fatalf("need several chunks for a truncation test, got %d", sealed.Chunks)
	}

	// A crash mid-run leaves no footer and possibly a torn final chunk.
	// Simulate the worst accepted case: footer gone, last chunk cut off
	// mid-byte. The replayer must still check every intact chunk.
	if err := os.Remove(filepath.Join(dir, footerSeg)); err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, chunkSeg(sealed.Chunks))
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatalf("replay of truncated trace must not hard-fail: %v", err)
	}
	if rep.Sealed {
		t.Error("truncated trace reported as sealed")
	}
	if rep.Truncated == "" {
		t.Error("truncated trace missing truncation reason")
	}
	if rep.Chunks != sealed.Chunks-1 {
		t.Errorf("replayed %d chunks of the %d-chunk prefix", rep.Chunks, sealed.Chunks-1)
	}
	if !rep.OK() {
		t.Errorf("intact prefix of a clean run replayed with findings: %s", rep)
	}
}

func TestStreamReplayDetectsMissingFooter(t *testing.T) {
	dir := t.TempDir()
	_, sr := recordStreamed(t, dir, StreamOptions{WindowSteps: 4}, 4, nil)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, footerSeg)); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayStream(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sealed || !strings.Contains(rep.Truncated, "footer") {
		t.Errorf("missing footer not reported: %s", rep)
	}
}

func TestStreamRecorderRegistration(t *testing.T) {
	dir := t.TempDir()
	sr, err := NewStreamRecorder(dir, StreamOptions{WindowSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(2))
	sn, err := sr.Node(p, 0, initial, true, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Node(p, 0, initial, true, true, true, false); err == nil {
		t.Error("duplicate node registration accepted")
	}
	// WindowSteps 1: the first record cuts a chunk, which writes the header
	// and closes registration.
	sn.ObserveDVS(dvscore.EvClientRegister{}, nil)
	if _, err := sr.Node(types.ProcID(1), 0, initial, true, true, true, false); err == nil {
		t.Error("registration accepted after the header was written")
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// The writer goroutine writes segments off the event loop; a write failure
// must still surface from Err and Close, stop the recording, and leave no
// footer, and Close must not wait forever on a writer that stopped.
func TestStreamRecorderWriteFailureIsSticky(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	sr, err := NewStreamRecorder(dir, StreamOptions{WindowSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := sr.Node(0, 0, types.InitialView(types.RangeProcSet(1)), true, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	// A regular file where the directory was: every segment write fails.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		sn.ObserveDVS(dvscore.EvClientRegister{}, nil)
	}
	if err := sr.Close(); err == nil {
		t.Fatal("close reported no error for an unwritable trace directory")
	}
	if sr.Err() == nil {
		t.Error("Err is nil after a failed write")
	}
	if _, err := os.Stat(filepath.Join(dir, footerSeg)); err == nil {
		t.Error("footer written after a failed segment")
	}
}

func TestReplayRejectsDuplicateProcessLogs(t *testing.T) {
	log := recordedRun(t)
	rep := Replay([]NodeLog{log, log})
	if rep.OK() || rep.Err() == nil {
		t.Fatalf("duplicate logs for one process accepted: %s", rep)
	}
	if len(rep.Malformed) == 0 || !strings.Contains(rep.Malformed[0], "duplicate") {
		t.Errorf("expected a duplicate-process report, got %v", rep.Malformed)
	}
	// Malformed input must not be replayed at all: a second log for the same
	// process is not "the same process twice", it is two runs mixed up.
	if rep.DVSSteps != 0 || rep.TOSteps != 0 {
		t.Errorf("malformed log set was still replayed: %s", rep)
	}
}

func TestReplayRejectsDisagreeingInitialViews(t *testing.T) {
	log := recordedRun(t)
	other := NodeLog{P: 1, Initial: types.InitialView(types.RangeProcSet(2)), InP0: true}
	rep := Replay([]NodeLog{log, other})
	if rep.OK() || rep.Err() == nil {
		t.Fatalf("logs with different initial views accepted: %s", rep)
	}
	found := false
	for _, m := range rep.Malformed {
		if strings.Contains(m, "initial view") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an initial-view disagreement report, got %v", rep.Malformed)
	}
}

// unregisteredMsg is a types.Msg deliberately not registered with gob, so
// encoding a trace that contains it fails partway through.
type unregisteredMsg struct{}

func (unregisteredMsg) MsgKey() string { return "unregistered" }

func TestWriteFileFailureLeavesNoPartialTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.gob")

	good := []NodeLog{recordedRun(t)}
	if err := WriteFile(path, good); err != nil {
		t.Fatalf("write good trace: %v", err)
	}

	bad := []NodeLog{recordedRun(t)}
	bad[0].DVS = append(bad[0].DVS, DVSRecord{Ev: dvscore.EvClientSend{M: unregisteredMsg{}}})
	if err := WriteFile(path, bad); err == nil {
		t.Fatal("encoding an unregistered message type did not fail")
	}

	// The failed write must leave the previous trace intact and no temp
	// litter behind.
	logs, err := ReadFile(path)
	if err != nil {
		t.Fatalf("previous trace destroyed by failed write: %v", err)
	}
	if rep := Replay(logs); !rep.OK() {
		t.Errorf("previous trace corrupted by failed write: %s", rep)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "trace.gob" {
			t.Errorf("failed write left %s behind", e.Name())
		}
	}
}

func TestWriteFileFailureCreatesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.gob")
	bad := []NodeLog{{P: 0, DVS: []DVSRecord{{Ev: dvscore.EvClientSend{M: unregisteredMsg{}}}}}}
	if err := WriteFile(path, bad); err == nil {
		t.Fatal("encoding an unregistered message type did not fail")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed write left an artifact at %s", path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("failed write left %d file(s) in the directory", len(entries))
	}
}
