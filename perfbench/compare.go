package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// compareMain compares two result sets, each a file of records written with
// --out (one JSON line per run). It refuses sets whose machine blocks or
// workload definitions differ, and otherwise prints, per workload and
// metric, each side's median and quartiles and the change of the medians.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BEFORE.jsonl AFTER.jsonl")
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if err := comparable(append(append([]record(nil), a...), b...)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: refusing:", err)
		return 1
	}
	fmt.Fprintf(out, "machine: %+v\n", a[0].Machine)
	for _, name := range workloadNames(a, b) {
		for _, d := range metricDefs {
			va, vb := metricValues(a, name, d.name), metricValues(b, name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			fmt.Fprintf(out, "%-13s %-30s before %.6g [%.6g, %.6g] n=%d  after %.6g [%.6g, %.6g] n=%d  change %+.2f%%\n",
				name, d.name, qa[1], qa[0], qa[2], len(va), qb[1], qb[0], qb[2], len(vb), 100*ratio(qb[1]-qa[1], qa[1]))
		}
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return out, nil
}

// comparable reports why records cannot be compared: a different machine
// block, or one workload name with two definitions.
func comparable(rs []record) error {
	defs := map[string]workload{}
	for _, r := range rs {
		if r.Machine != rs[0].Machine {
			return fmt.Errorf("machine blocks differ: %+v vs %+v", rs[0].Machine, r.Machine)
		}
		if d, ok := defs[r.Workload.Name]; ok && !reflect.DeepEqual(d, r.Workload) {
			return fmt.Errorf("workload %s has two definitions: %+v vs %+v", r.Workload.Name, d, r.Workload)
		}
		defs[r.Workload.Name] = r.Workload
	}
	return nil
}

func workloadNames(sets ...[]record) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range sets {
		for _, r := range s {
			if !seen[r.Workload.Name] {
				seen[r.Workload.Name] = true
				out = append(out, r.Workload.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

func metricValues(rs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload.Name == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile with the
// method of Python's statistics.quantiles(values, n=4) (exclusive).
func quartiles(values []float64) [3]float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		if j < 1 {
			lo, hi = 0, 0
		}
		q[i-1] = (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return q
}
