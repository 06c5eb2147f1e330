package dvs

import (
	"fmt"
	"testing"
	"time"
)

// startTCPNodes launches cfg.Processes standalone nodes over localhost
// TCP on the ports base, base+1, ...; cfg supplies everything but ID,
// Listen and Peers. The nodes are closed at cleanup.
func startTCPNodes(t *testing.T, base int, cfg NodeConfig) []*Node {
	t.Helper()
	n := cfg.Processes
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", base+i)
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		peers := make(map[int]string, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers[j] = addrs[j]
			}
		}
		c := cfg
		c.ID, c.Listen, c.Peers = i, addrs[i], peers
		node, err := StartNode(c)
		if err != nil {
			for _, nd := range nodes[:i] {
				nd.Close()
			}
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

// startTCPGroup launches n single-group nodes on fixed localhost ports.
func startTCPGroup(t *testing.T, n int, mode Mode) []*Node {
	return startTCPNodes(t, 39200+n*17, NodeConfig{Processes: n, Mode: mode, TickInterval: 5 * time.Millisecond})
}

func TestTCPNodesDeliverTotalOrder(t *testing.T) {
	nodes := startTCPGroup(t, 3, ModeDynamic)
	time.Sleep(150 * time.Millisecond)
	for k := 0; k < 6; k++ {
		if !nodes[k%3].Broadcast(fmt.Sprintf("tcp%d", k)) {
			t.Fatal("broadcast failed")
		}
	}
	seqs := make([][]Delivery, 3)
	for i := 0; i < 3; i++ {
		deadline := time.After(10 * time.Second)
		for len(seqs[i]) < 6 {
			select {
			case d := <-nodes[i].Deliveries():
				seqs[i] = append(seqs[i], d)
			case <-deadline:
				t.Fatalf("node %d: %d of 6 deliveries", i, len(seqs[i]))
			}
		}
	}
	for i := 1; i < 3; i++ {
		for k := range seqs[0] {
			if seqs[i][k] != seqs[0][k] {
				t.Fatalf("node %d diverges at %d: %v vs %v", i, k, seqs[i][k], seqs[0][k])
			}
		}
	}
}

func TestTCPNodesShardedDeliverPerGroup(t *testing.T) {
	const n, groups = 3, 2
	nodes := startTCPNodes(t, 39600, NodeConfig{
		Processes: n, Mode: ModeDynamic, Groups: groups, TickInterval: 5 * time.Millisecond,
	})
	time.Sleep(150 * time.Millisecond)

	// Keyed traffic lands on whichever group the ring picks; count per
	// group with SubmitKey so the expectation matches the routing.
	want := make([]int, groups)
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("key%d", k)
		g := nodes[0].SubmitKey(key)
		if og := nodes[1].SubmitKey(key); og != g {
			t.Fatalf("ring disagreement for %q: %v vs %v", key, g, og)
		}
		if !nodes[k%n].Submit(key, "v:"+key) {
			t.Fatalf("submit %q failed", key)
		}
		want[g]++
	}
	// One atomic multicast addressed to both groups: each group delivers
	// the payload exactly once.
	allGroups := nodes[0].Groups()
	if err := nodes[0].SubmitMulti(allGroups, "both"); err != nil {
		t.Fatalf("SubmitMulti: %v", err)
	}
	for g := range want {
		want[g]++
	}

	seqs := make([][][]Delivery, n) // [node][group]
	for i := 0; i < n; i++ {
		seqs[i] = make([][]Delivery, groups)
		for gi, g := range allGroups {
			h, ok := nodes[i].Group(g)
			if !ok {
				t.Fatalf("node %d: no handle for group %v", i, g)
			}
			deadline := time.After(20 * time.Second)
			for len(seqs[i][gi]) < want[gi] {
				select {
				case d := <-h.Deliveries():
					seqs[i][gi] = append(seqs[i][gi], d)
				case <-deadline:
					t.Fatalf("node %d group %v: %d of %d deliveries",
						i, g, len(seqs[i][gi]), want[gi])
				}
			}
		}
	}
	for gi := range allGroups {
		sawMulti := false
		for _, d := range seqs[0][gi] {
			if d.Payload == "both" {
				sawMulti = true
			}
		}
		if !sawMulti {
			t.Fatalf("group %d never delivered the multicast", gi)
		}
		for i := 1; i < n; i++ {
			for k := range seqs[0][gi] {
				if seqs[i][gi][k] != seqs[0][gi][k] {
					t.Fatalf("node %d group %d diverges at %d: %v vs %v",
						i, gi, k, seqs[i][gi][k], seqs[0][gi][k])
				}
			}
		}
	}
}

func TestTCPNodeSurvivesPeerShutdown(t *testing.T) {
	nodes := startTCPGroup(t, 3, ModeDynamic)
	time.Sleep(150 * time.Millisecond)
	nodes[2].Close() // peer goes away for good
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, ok := nodes[0].CurrentPrimary()
		if ok && v.Members.Len() == 2 && nodes[0].Established() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never formed {0,1}; have %v %v", v, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !nodes[0].Broadcast("without-2") {
		t.Fatal("broadcast failed")
	}
	select {
	case d := <-nodes[1].Deliveries():
		if d.Payload != "without-2" {
			t.Fatalf("delivery = %+v", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery after peer shutdown")
	}
}

func TestTCPNodeConfigValidation(t *testing.T) {
	if _, err := StartNode(NodeConfig{}); err == nil {
		t.Error("zero processes accepted")
	}
	if _, err := StartNode(NodeConfig{Processes: 2, ID: 5}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := StartNode(NodeConfig{Processes: 2, ID: 0, Listen: "127.0.0.1:1", Initial: []int{9}}); err == nil {
		t.Error("out-of-range initial member accepted")
	}
}
