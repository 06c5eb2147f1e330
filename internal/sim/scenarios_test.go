package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestPartitionCascade(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based scenario")
	}
	res, err := PartitionCascade(CascadeConfig{Processes: 6, Rounds: 6, Seed: 3})
	if err != nil {
		t.Fatalf("%v (result %s)", err, res)
	}
	t.Logf("%s primaries=%v", res, res.Primaries)
	if len(res.Primaries) < 2 {
		t.Errorf("cascade should have formed several primaries, got %d", len(res.Primaries))
	}
}

func TestThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based scenario")
	}
	res, err := Throughput(ThroughputConfig{Processes: 4, Duration: 300 * time.Millisecond, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if !res.Consistent {
		t.Error("delivery sequences inconsistent")
	}
	if res.Delivered == 0 {
		t.Error("no deliveries")
	}
}

func TestRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based scenario")
	}
	res, err := Recovery(RecoveryConfig{Processes: 5, Seed: 5})
	if err != nil {
		t.Fatalf("%v (result %s)", err, res)
	}
	t.Log(res)
}

func TestRegisterAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based scenario")
	}
	with, err := RegisterAblation(AblationConfig{Processes: 5, Rounds: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	without, err := RegisterAblation(AblationConfig{Processes: 5, Rounds: 4, Seed: 6, DisableReg: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("with   : %s", with)
	t.Logf("without: %s", without)
	if with.GCs == 0 {
		t.Error("registration should enable garbage collection")
	}
	if without.GCs != 0 {
		t.Error("without registration there should be no garbage collection")
	}
	if without.MaxAmbiguous < with.MaxAmbiguous {
		t.Errorf("ambiguity should not shrink when registration is disabled: with=%d without=%d", with.MaxAmbiguous, without.MaxAmbiguous)
	}
}

func TestSharded(t *testing.T) {
	for _, groups := range []int{1, 3} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			res, err := Sharded(ShardedConfig{Processes: 3, Groups: groups, Duration: 200 * time.Millisecond, CrossFrac: 0.1, Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(res)
			if !res.Consistent {
				t.Error("sharded delivery inconsistent")
			}
			if res.Keyed == 0 || res.Delivered == 0 {
				t.Errorf("no keyed traffic delivered: %s", res)
			}
			if groups == 1 && res.Multis != 0 {
				t.Errorf("one group sent %d cross-group multicasts", res.Multis)
			}
			if groups > 1 && res.Multis == 0 {
				t.Error("no cross-group multicast sent")
			}
		})
	}
}
