package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLevels is the percentile ladder a timing's tail is reported on,
// highest first, as the fraction of samples that lie beyond each level:
// 1/10000 beyond p99.99, 1/1000 beyond p99.9, and so on down to p50.
var tailLevels = []struct {
	name   string
	level  float64 // percentile, in percent
	beyond int     // one sample in `beyond` lies above the level
}{
	{"p99.99", 99.99, 10000},
	{"p99.9", 99.9, 1000},
	{"p99", 99, 100},
	{"p90", 90, 10},
	{"p50", 50, 2},
}

// supported reports whether a sample of n values has at least ten samples
// beyond the percentile that leaves one in `beyond` above it.
func supported(n, beyond int) bool { return n >= 10*beyond }

// highestSupported returns the highest percentile of the ladder with at
// least ten samples beyond it in a sample of n, or ok=false when even the
// median lacks ten (n < 20).
func highestSupported(n int) (name string, level float64, ok bool) {
	for _, t := range tailLevels {
		if supported(n, t.beyond) {
			return t.name, t.level, true
		}
	}
	return "", 0, false
}

// percentile returns the nearest-rank percentile p (in percent) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// timing summarizes one sample of durations (or any values): its size, its
// median, the p99 the metrics report, and the highest percentile the sample
// supports by the ten-beyond rule.
type timing struct {
	n        int
	p50, p99 float64
	tailName string
	tail     float64
}

func summarize(values []float64) timing {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	t := timing{n: len(s), p50: percentile(s, 50), p99: percentile(s, 99)}
	if name, level, ok := highestSupported(len(s)); ok {
		t.tailName, t.tail = name, percentile(s, level)
	}
	return t
}

// String prints the median, the highest supported percentile and the
// sample count, and flags a p99 the sample is too small to support.
func (t timing) String() string {
	if t.n == 0 {
		return "no samples"
	}
	tail := "no percentile has ten samples beyond it"
	if t.tailName != "" {
		tail = fmt.Sprintf("%s=%.4g", t.tailName, t.tail)
	}
	s := fmt.Sprintf("p50=%.4g %s n=%d", t.p50, tail, t.n)
	if !supported(t.n, 100) {
		s += " (p99 unsupported)"
	}
	return s
}

// median of values (NaN when empty).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}
