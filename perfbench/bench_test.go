package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{0, ""}, {19, ""}, {20, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"},
		{1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}, {99999, "p99.9"}, {100000, "p99.99"},
	} {
		got, _, ok := highestSupported(c.n)
		if got != c.want || ok != (c.want != "") {
			t.Errorf("highestSupported(%d) = %q, %v; want %q", c.n, got, ok, c.want)
		}
	}
}

func TestSummarizeReportsTheSupportedTail(t *testing.T) {
	values := make([]float64, 1000)
	for i := range values {
		values[i] = float64(i + 1)
	}
	s := summarize(values)
	if s.n != 1000 || s.p50 != 500 || s.p99 != 990 || s.tailName != "p99" || s.tail != 990 {
		t.Fatalf("summarize(1..1000) = %+v", s)
	}
	if s := summarize(values[:999]); s.tailName != "p90" {
		t.Fatalf("999 samples support %s; want p90 (p99 has only 9 beyond it)", s.tailName)
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// the convention the benchmark's spreads (IQR over median) are quoted in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v; want %v", c.in, got, c.want)
		}
	}
}

func TestCompareRefusesDifferentMachines(t *testing.T) {
	w, _ := findWorkload("to-mem-sat")
	a := record{Workload: w, Machine: machine{NProc: 2, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1.24.0"}}
	b := a
	if err := comparable([]record{a, b}); err != nil {
		t.Fatalf("identical machines refused: %v", err)
	}
	b.Machine.NProc = 4
	if err := comparable([]record{a, b}); err == nil {
		t.Fatal("records from different machines were accepted")
	}
	b = a
	b.Workload.Rate = 1
	if err := comparable([]record{a, b}); err == nil {
		t.Fatal("records of two definitions of one workload were accepted")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: bad name or unit", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// every workload it names exists, and it lists exactly the metrics the
// program reports, each with its unit and in the right kind of run. The
// program may run workloads BENCHMARK.json does not list (sharded-rate).
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string }
		PerLayer  []struct{ Name, Unit string }
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	_ = json.Unmarshal(raw["workloads"], &spec.Workloads)
	_ = json.Unmarshal(raw["end_to_end"], &spec.EndToEnd)
	_ = json.Unmarshal(raw["per_layer"], &spec.PerLayer)
	for _, sw := range spec.Workloads {
		if _, ok := findWorkload(sw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", sw.Name)
		}
	}
	defs := map[string]metricDef{}
	for _, d := range metricDefs {
		defs[d.name] = d
	}
	check := func(list []struct{ Name, Unit string }, endToEnd bool) {
		for _, m := range list {
			d, ok := defs[m.Name]
			if !ok || d.unit != m.Unit || d.endToEnd != endToEnd {
				t.Errorf("BENCHMARK.json metric %q (%s): not reported as such", m.Name, m.Unit)
			}
		}
	}
	check(spec.EndToEnd, true)
	check(spec.PerLayer, false)
	if n := len(spec.EndToEnd) + len(spec.PerLayer); n != len(metricDefs) {
		t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", n, len(metricDefs))
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and requires
// a correct result that reports every metric of its kind with a unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	root := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := execute(w, 7, 1, traced, root, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rec.Correct {
				t.Errorf("%s traced=%v: failed checks %v", w.Name, traced, rec.Checks)
			}
			for _, d := range metricDefs {
				v, ok := rec.Metrics[d.name]
				if d.endToEnd == traced {
					if ok {
						t.Errorf("%s traced=%v reports %s", w.Name, traced, d.name)
					}
					continue
				}
				if !ok || v.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or without its unit", w.Name, traced, d.name)
				}
			}
			if !traced && rec.Metrics["tput_msgs"].Value <= 0 {
				t.Errorf("%s: no throughput", w.Name)
			}
		}
	}
}
