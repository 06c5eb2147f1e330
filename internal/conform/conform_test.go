package conform

import (
	"bytes"
	"testing"

	"repro/internal/protocol/dvscore"
	"repro/internal/protocol/tocore"
	"repro/internal/types"
)

// recordedRun drives the two cores of a singleton node through a small
// scripted run via the same Step/Recorder path the runtime shells use, and
// returns the harvested log.
func recordedRun(t *testing.T) NodeLog {
	t.Helper()
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(1))
	rec := NewRecorder(p, 0, initial, true, true, true, false)

	dn := dvscore.NewNode(p, initial, true)
	tn := tocore.NewNode(p, initial, true, false)

	stepDVS := func(ev dvscore.Event) []dvscore.Effect {
		var out dvscore.Outbox
		dvscore.Step(dn, ev, true, &out)
		rec.ObserveDVS(ev, out.Effects)
		return out.Effects
	}
	stepTO := func(ev tocore.Event) []tocore.Effect {
		var out tocore.Outbox
		if err := tocore.Step(tn, ev, true, &out); err != nil {
			t.Fatalf("to step: %v", err)
		}
		rec.ObserveTO(ev, out.Effects)
		return out.Effects
	}

	// The TO core broadcasts, labels, and sends; the label message travels
	// through the DVS core and comes back up as delivery plus safe.
	for _, fx := range stepTO(tocore.EvBroadcast{A: "a1"}) {
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
	log := rec.Log()
	if len(log.DVS) == 0 || len(log.TO) == 0 {
		t.Fatalf("scripted run recorded no steps: dvs=%d to=%d", len(log.DVS), len(log.TO))
	}
	return log
}

func TestReplayCleanRun(t *testing.T) {
	log := recordedRun(t)
	rep := Replay([]NodeLog{log})
	if err := rep.Err(); err != nil {
		t.Fatalf("replay of faithful log: %v", err)
	}
	if rep.DVSSteps != len(log.DVS) || rep.TOSteps != len(log.TO) {
		t.Errorf("step counts: %s", rep)
	}
	if rep.Checks == 0 {
		t.Error("no invariant checks evaluated")
	}
}

func TestReplayDetectsTampering(t *testing.T) {
	log := recordedRun(t)

	// Drop the effects of the first TO step that had any: the replayed core
	// re-derives them, so the checker must flag the mismatch.
	tampered := Replay([]NodeLog{tamperTO(log)})
	if tampered.OK() {
		t.Fatal("replay accepted a log with dropped TO effects")
	}
	if len(tampered.Divergences) == 0 {
		t.Fatal("expected a divergence")
	}
	d := tampered.Divergences[0]
	if d.Layer != "to" || d.Want == d.Got {
		t.Errorf("unexpected divergence: %s", d)
	}

	// Same for a DVS step.
	if rep := Replay([]NodeLog{tamperDVS(log)}); rep.OK() {
		t.Fatal("replay accepted a log with dropped DVS effects")
	}
}

func tamperTO(log NodeLog) NodeLog {
	out := log
	out.TO = append([]TORecord(nil), log.TO...)
	for i, r := range out.TO {
		if len(r.Fx) > 0 {
			out.TO[i] = TORecord{Ev: r.Ev, Fx: nil}
			break
		}
	}
	return out
}

func tamperDVS(log NodeLog) NodeLog {
	out := log
	out.DVS = append([]DVSRecord(nil), log.DVS...)
	for i, r := range out.DVS {
		if len(r.Fx) > 0 {
			out.DVS[i] = DVSRecord{Ev: r.Ev, Fx: nil}
			break
		}
	}
	return out
}

func TestCodecRoundTrip(t *testing.T) {
	logs := []NodeLog{recordedRun(t)}
	var buf bytes.Buffer
	if err := Encode(&buf, logs); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d logs", len(decoded))
	}
	if got, want := len(decoded[0].DVS), len(logs[0].DVS); got != want {
		t.Fatalf("dvs records: got %d want %d", got, want)
	}
	if got, want := len(decoded[0].TO), len(logs[0].TO); got != want {
		t.Fatalf("to records: got %d want %d", got, want)
	}
	if err := Replay(decoded).Err(); err != nil {
		t.Fatalf("replay of decoded log: %v", err)
	}

	path := t.TempDir() + "/trace.gob"
	if err := WriteFile(path, logs); err != nil {
		t.Fatalf("write: %v", err)
	}
	fromFile, err := ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := Replay(fromFile).Err(); err != nil {
		t.Fatalf("replay of file round trip: %v", err)
	}
}

func TestReplayEmpty(t *testing.T) {
	rep := Replay(nil)
	if !rep.OK() || rep.Err() != nil {
		t.Fatalf("empty replay not OK: %s", rep)
	}
}

// TestReplayComparesBatchesStructurally records a send whose batch differs
// from the re-derived one only in where the member boundaries fall. Both
// render to the same key ("batch[c:a|c:b]"), so only a structural
// comparison reports the divergence.
func TestReplayComparesBatchesStructurally(t *testing.T) {
	p := types.ProcID(0)
	initial := types.InitialView(types.RangeProcSet(1))
	sent := types.Batch{Msgs: []types.Msg{types.ClientMsg("a"), types.ClientMsg("b")}}
	forged := types.Batch{Msgs: []types.Msg{types.ClientMsg("a|c:b")}}
	if sent.MsgKey() != forged.MsgKey() {
		t.Fatalf("premise: keys %q and %q should collide", sent.MsgKey(), forged.MsgKey())
	}
	var out dvscore.Outbox
	dvscore.Step(dvscore.NewNode(p, initial, true), dvscore.EvClientSend{M: sent}, true, &out)
	if len(out.Effects) != 1 {
		t.Fatalf("client send produced %d effects, want one FxSendVS", len(out.Effects))
	}
	if _, ok := out.Effects[0].(dvscore.FxSendVS); !ok {
		t.Fatalf("client send produced %T, want FxSendVS", out.Effects[0])
	}
	logFor := func(m types.Msg) NodeLog {
		return NodeLog{P: p, Initial: initial, InP0: true, Register: true, GC: true,
			DVS: []DVSRecord{{Ev: dvscore.EvClientSend{M: sent}, Fx: []dvscore.Effect{dvscore.FxSendVS{M: m}}}}}
	}
	if rep := Replay([]NodeLog{logFor(sent)}); len(rep.Divergences) != 0 {
		t.Fatalf("faithful record diverged: %v", rep.Divergences)
	}
	rep := Replay([]NodeLog{logFor(forged)})
	if len(rep.Divergences) != 1 {
		t.Fatalf("forged batch boundary: %d divergences, want 1 (%s)", len(rep.Divergences), rep)
	}
	if d := rep.Divergences[0]; d.Layer != "dvs" || d.Index != 0 {
		t.Errorf("divergence at %s step %d, want dvs step 0", d.Layer, d.Index)
	}
}
