package vsg

import (
	"fmt"
	"testing"
	"time"

	netfab "repro/internal/net"
	"repro/internal/types"
)

// inLoop runs f on nd's event loop and waits for it to finish.
func inLoop(t *testing.T, nd *Node, f func()) {
	t.Helper()
	done := make(chan struct{})
	if !nd.Do(func() { f(); close(done) }) {
		t.Fatal("node stopped")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("event loop did not run the command")
	}
}

// windowState is the part of a node's buffers the trim bounds constrain.
type windowState struct {
	delivered, logLen, logBase, safePoint, nextDeliver, nextSafe int
	logAboveSafe                                                 bool
}

func readWindow(t *testing.T, nd *Node) windowState {
	t.Helper()
	var w windowState
	inLoop(t, nd, func() {
		w = windowState{
			delivered: len(nd.delivered), logLen: len(nd.leaderLog),
			logBase: nd.logBase, safePoint: nd.safePoint,
			nextDeliver: nd.nextDeliver, nextSafe: nd.nextSafe,
			logAboveSafe: true,
		}
		for _, o := range nd.leaderLog {
			if o.Seq <= nd.safePoint {
				w.logAboveSafe = false
			}
		}
	})
	return w
}

func TestLogsTrimmedOnceSafe(t *testing.T) {
	c := newCluster(t, 3)
	const total = 60
	for k := 0; k < total; k++ {
		nd := c.nodes[k%3]
		msg := fmt.Sprintf("m%d", k)
		nd.Do(func() { nd.SendInLoop(msg) })
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, r := range c.recs {
			if count(r.snapshot(), "safe:") < total {
				return false
			}
		}
		return true
	}, "every message safe at every node")
	for i, nd := range c.nodes {
		w := readWindow(t, nd)
		if w.delivered != 0 || w.nextSafe != w.nextDeliver {
			t.Errorf("node %d: %d delivered entries kept (nextSafe %d, nextDeliver %d); want none once all are safe",
				i, w.delivered, w.nextSafe, w.nextDeliver)
		}
		if i != 0 {
			continue
		}
		if w.safePoint != total || w.logBase != w.safePoint || w.logLen != 0 || !w.logAboveSafe {
			t.Errorf("leader: safePoint %d, logBase %d, %d log entries (all above safe point: %v); want %d, %d, 0",
				w.safePoint, w.logBase, w.logLen, w.logAboveSafe, total, total)
		}
	}
}

func TestStalledMemberCatchesUpAfterTrim(t *testing.T) {
	// A generous failure detector keeps the view stable across the stall,
	// so only retransmission from acked[q] can bring member 2 back.
	universe := types.RangeProcSet(3)
	v0 := types.InitialView(universe)
	fab := netfab.NewFabric(universe, netfab.Config{})
	var nodes []*Node
	var recs []*recorder
	for i := 0; i < 3; i++ {
		rec := &recorder{}
		nd := NewNode(Config{Self: types.ProcID(i), Universe: universe, Initial: v0, Transport: fab,
			SuspectTimeout: 10 * time.Second})
		nd.SetHandler(rec)
		nodes = append(nodes, nd)
		recs = append(recs, rec)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	send := func(from, lo, hi int) {
		nd := nodes[from]
		for k := lo; k < hi; k++ {
			msg := fmt.Sprintf("m%d", k)
			nd.Do(func() { nd.SendInLoop(msg) })
		}
	}
	allSafe := func(n int) func() bool {
		return func() bool {
			for _, r := range recs {
				if count(r.snapshot(), "safe:") < n {
					return false
				}
			}
			return true
		}
	}

	send(1, 0, 30)
	waitFor(t, 5*time.Second, allSafe(30), "first burst safe everywhere")
	if w := readWindow(t, nodes[0]); w.logBase != 30 || w.logLen != 0 {
		t.Fatalf("leader log not trimmed before the stall: logBase %d, %d entries", w.logBase, w.logLen)
	}

	// Member 2 stalls: it hears nothing while the others order 40 more.
	fab.Partition([]types.ProcID{0, 1}, []types.ProcID{2})
	send(1, 30, 70)
	waitFor(t, 5*time.Second, func() bool { return count(recs[1].snapshot(), "recv:") >= 70 },
		"second burst delivered on the majority side")
	if w := readWindow(t, nodes[0]); w.safePoint != 30 || w.logLen != 40 {
		t.Fatalf("during the stall: safePoint %d with %d log entries; want 30 and 40 (the unacked suffix)",
			w.safePoint, w.logLen)
	}
	fab.Heal()

	waitFor(t, 10*time.Second, allSafe(70), "stalled member caught up and every message safe")
	if got := count(recs[2].snapshot(), "recv:"); got != 70 {
		t.Errorf("member 2 delivered %d messages, want 70", got)
	}
	for i, r := range recs {
		r.mu.Lock()
		views := len(r.views)
		r.mu.Unlock()
		if views != 1 {
			t.Errorf("node %d installed %d views; the stall must not change the view", i, views)
		}
	}
	if w := readWindow(t, nodes[0]); w.logBase != 70 || w.logLen != 0 {
		t.Errorf("after catch-up: logBase %d, %d log entries; want 70 and 0", w.logBase, w.logLen)
	}
}
