package dvs

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// allGroups is the all-groups API ShardedProcess and Node share.
type allGroups interface {
	Submit(key, payload string) bool
	SubmitMulti(dests []GroupID, payload string) error
	Groups() []GroupID
	Group(g GroupID) (*Process, bool)
}

// awaitGoroutines waits until the goroutine count is back to at most want.
func awaitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		got := runtime.NumGoroutine()
		if got <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s",
				got, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRuntimesCloseWithoutLeaks starts every runtime built on
// buildProcess, sends keyed traffic (and one multicast where there are two
// or more groups), waits for process 0 to deliver it, closes, and checks
// that every goroutine the runtime started has exited.
func TestRuntimesCloseWithoutLeaks(t *testing.T) {
	tick := 5 * time.Millisecond
	cases := []struct {
		name  string
		start func(t *testing.T) (allGroups, func())
	}{
		{"Cluster", func(t *testing.T) (allGroups, func()) {
			cl, err := NewCluster(Config{Processes: 3, Seed: 1, TickInterval: tick})
			if err != nil {
				t.Fatal(err)
			}
			return cl.procs[0], cl.Close
		}},
		{"ShardedCluster/groups=1", func(t *testing.T) (allGroups, func()) {
			cl, err := NewShardedCluster(ShardedConfig{Processes: 3, Groups: 1, Seed: 1, TickInterval: tick})
			if err != nil {
				t.Fatal(err)
			}
			return cl.Process(0), func() { cl.Close() }
		}},
		{"ShardedCluster/groups=3", func(t *testing.T) (allGroups, func()) {
			cl, err := NewShardedCluster(ShardedConfig{Processes: 3, Groups: 3, Seed: 1, TickInterval: tick})
			if err != nil {
				t.Fatal(err)
			}
			return cl.Process(0), func() { cl.Close() }
		}},
		{"Node/groups=1", func(t *testing.T) (allGroups, func()) {
			nodes := startTCPNodes(t, 39800, NodeConfig{Processes: 3, TickInterval: tick})
			return nodes[0], func() {
				for _, n := range nodes {
					n.Close()
				}
			}
		}},
		{"Node/groups=2", func(t *testing.T) (allGroups, func()) {
			nodes := startTCPNodes(t, 39820, NodeConfig{Processes: 3, Groups: 2, TickInterval: tick})
			return nodes[0], func() {
				for _, n := range nodes {
					n.Close()
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			p, stop := tc.start(t)
			const msgs = 20
			want := msgs
			for k := 0; k < msgs; k++ {
				key := fmt.Sprintf("key%d", k)
				if !p.Submit(key, "v:"+key) {
					t.Fatalf("submit %q failed", key)
				}
			}
			if groups := p.Groups(); len(groups) > 1 {
				if err := p.SubmitMulti(groups, "all"); err != nil {
					t.Fatalf("SubmitMulti: %v", err)
				}
				want += len(groups)
			}
			got := 0
			deadline := time.After(20 * time.Second)
			for got < want {
				for _, g := range p.Groups() {
					h, _ := p.Group(g)
					select {
					case <-h.Deliveries():
						got++
					case <-deadline:
						t.Fatalf("process 0 delivered %d of %d", got, want)
					case <-time.After(time.Millisecond):
					}
				}
			}
			stop()
			awaitGoroutines(t, baseline)
		})
	}
}

// TestOneGroupProcessIsPlainStack pins the one-group rule: a one-group
// process is a single stack on the transport, with no multiplexer, ring
// points or multicast coordinator, so ShardedCluster{Groups: 1} runs no
// goroutine a Cluster of the same size does not, multicast is refused,
// and keyed submits deliver in group 0.
func TestOneGroupProcessIsPlainStack(t *testing.T) {
	started := func(start func() func()) int {
		before := runtime.NumGoroutine()
		stop := start()
		n := runtime.NumGoroutine() - before
		stop()
		awaitGoroutines(t, before)
		return n
	}
	plain := started(func() func() {
		cl, err := NewCluster(Config{Processes: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return cl.Close
	})
	sharded := started(func() func() {
		cl, err := NewShardedCluster(ShardedConfig{Processes: 4, Groups: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return func() { cl.Close() }
	})
	if sharded > plain {
		t.Fatalf("ShardedCluster{Groups: 1} started %d goroutines, Cluster %d", sharded, plain)
	}

	cl, err := NewShardedCluster(ShardedConfig{Processes: 3, Groups: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Process(0).SubmitMulti([]GroupID{0}, "x"); err == nil {
		t.Error("ShardedProcess.SubmitMulti accepted with one group")
	}

	nodes := startTCPNodes(t, 39840, NodeConfig{Processes: 3, TickInterval: 5 * time.Millisecond})
	if err := nodes[0].SubmitMulti([]GroupID{0}, "x"); err == nil {
		t.Error("Node.SubmitMulti accepted with one group")
	}
	if g := nodes[1].SubmitKey("k"); g != 0 {
		t.Fatalf("one-group node routes to group %s", g)
	}
	if !nodes[1].Submit("k", "keyed") {
		t.Fatal("submit failed")
	}
	h, ok := nodes[2].Group(0)
	if !ok {
		t.Fatal("no group 0 handle")
	}
	select {
	case d := <-h.Deliveries():
		if d.Payload != "keyed" || d.Origin != 1 {
			t.Fatalf("delivery = %+v", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("keyed submit not delivered in group 0")
	}
}
